//! Model identities and the API price table used for Figure 4.

/// The language models evaluated in the paper (§4.1, §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ModelId {
    /// `gpt-3.5-turbo-0613` (OpenAI) — the paper's default.
    Gpt35Turbo,
    /// `gpt-4-0613` (OpenAI).
    Gpt4,
    /// `Llama-2-7b-chat` (Anyscale endpoints).
    Llama2Chat7b,
    /// `Llama-2-13b-chat` (Anyscale endpoints).
    Llama2Chat13b,
    /// `Llama-2-70b-chat` (Anyscale endpoints).
    Llama2Chat70b,
}

impl ModelId {
    /// All models of the Table 3 ablation, in row order.
    pub const ALL: [ModelId; 5] = [
        ModelId::Gpt35Turbo,
        ModelId::Gpt4,
        ModelId::Llama2Chat7b,
        ModelId::Llama2Chat13b,
        ModelId::Llama2Chat70b,
    ];

    /// The model the CLI's `--model` flag and the serve daemon's `model`
    /// field name by `name`, or an error naming the valid short names.
    pub fn from_short_name(name: &str) -> Result<ModelId, String> {
        match name {
            "gpt-3.5" => Ok(ModelId::Gpt35Turbo),
            "gpt-4" => Ok(ModelId::Gpt4),
            "llama-7b" => Ok(ModelId::Llama2Chat7b),
            "llama-13b" => Ok(ModelId::Llama2Chat13b),
            "llama-70b" => Ok(ModelId::Llama2Chat70b),
            other => Err(format!(
                "unknown model '{other}' (gpt-3.5 gpt-4 llama-7b llama-13b llama-70b)"
            )),
        }
    }

    /// API model string.
    pub fn api_name(&self) -> &'static str {
        match self {
            ModelId::Gpt35Turbo => "gpt-3.5-turbo-0613",
            ModelId::Gpt4 => "gpt-4-0613",
            ModelId::Llama2Chat7b => "llama-2-7b-chat",
            ModelId::Llama2Chat13b => "llama-2-13b-chat",
            ModelId::Llama2Chat70b => "llama-2-70b-chat",
        }
    }

    /// Display label used in Table 3.
    pub fn label(&self) -> &'static str {
        match self {
            ModelId::Gpt35Turbo => "GPT-3.5",
            ModelId::Gpt4 => "GPT-4",
            ModelId::Llama2Chat7b => "Llama2-CHAT-7b",
            ModelId::Llama2Chat13b => "Llama2-CHAT-13b",
            ModelId::Llama2Chat70b => "Llama2-CHAT-70b",
        }
    }
}

impl std::fmt::Display for ModelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// API prices, matching the rates cited by the paper (footnote 2:
/// gpt-3.5-turbo-0613 was $1.50/M input, $2.00/M output) and the
/// contemporaneous OpenAI / Anyscale price lists.
///
/// Rates are stored as integer **nano-USD per token** ($1.50/M tokens =
/// 1500 nUSD/token), so cost accumulation over a run is exact integer
/// arithmetic; floating point enters only at the display boundary.
#[derive(Debug, Clone, Copy)]
pub struct PricingTable;

impl PricingTable {
    /// `(input, output)` rates in nano-USD per token.
    pub fn rates_nanousd(model: ModelId) -> (u64, u64) {
        match model {
            ModelId::Gpt35Turbo => (1_500, 2_000),
            ModelId::Gpt4 => (30_000, 60_000),
            ModelId::Llama2Chat7b => (150, 150),
            ModelId::Llama2Chat13b => (250, 250),
            ModelId::Llama2Chat70b => (1_000, 1_000),
        }
    }

    /// `(input $/M, output $/M)` for a model (display form of the
    /// nano-USD rates).
    pub fn rates(model: ModelId) -> (f64, f64) {
        let (inp, out) = Self::rates_nanousd(model);
        // ds-lint: allow(lossy-cast): display boundary; rates are < 2^53, exact in f64
        (inp as f64 / 1e3, out as f64 / 1e3)
    }

    /// Exact cost in nano-USD for a token mix under a model's rates.
    pub fn cost_nanousd(model: ModelId, prompt_tokens: u64, completion_tokens: u64) -> u128 {
        let (inp, out) = Self::rates_nanousd(model);
        u128::from(prompt_tokens) * u128::from(inp)
            + u128::from(completion_tokens) * u128::from(out)
    }

    /// Cost in USD for a token mix under a model's rates (display form via
    /// the shared `datasculpt_obs::cost` boundary).
    ///
    /// Exact below 2^53 nano-USD (≈ $9M) — far beyond any experiment grid.
    pub fn cost_usd(model: ModelId, prompt_tokens: u64, completion_tokens: u64) -> f64 {
        datasculpt_obs::cost::nanousd_to_usd(Self::cost_nanousd(
            model,
            prompt_tokens,
            completion_tokens,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_names_select_the_models_they_always_did() {
        for (name, id) in [
            ("gpt-3.5", ModelId::Gpt35Turbo),
            ("gpt-4", ModelId::Gpt4),
            ("llama-7b", ModelId::Llama2Chat7b),
            ("llama-13b", ModelId::Llama2Chat13b),
            ("llama-70b", ModelId::Llama2Chat70b),
        ] {
            assert_eq!(ModelId::from_short_name(name), Ok(id));
        }
        assert_eq!(
            ModelId::from_short_name("gpt-99"),
            Err("unknown model 'gpt-99' (gpt-3.5 gpt-4 llama-7b llama-13b llama-70b)".into())
        );
    }

    #[test]
    fn paper_footnote_rates() {
        let (inp, out) = PricingTable::rates(ModelId::Gpt35Turbo);
        assert_eq!((inp, out), (1.50, 2.00));
    }

    #[test]
    fn gpt4_much_more_expensive() {
        let c35 = PricingTable::cost_usd(ModelId::Gpt35Turbo, 1_000_000, 1_000_000);
        let c4 = PricingTable::cost_usd(ModelId::Gpt4, 1_000_000, 1_000_000);
        assert!(c4 / c35 > 20.0);
    }

    #[test]
    fn cost_arithmetic() {
        // 38,992 tokens at gpt-3.5 rates is about $0.06 (the paper's
        // headline DataSculpt-Base cost), mostly prompt tokens.
        let cost = PricingTable::cost_usd(ModelId::Gpt35Turbo, 33_000, 6_000);
        assert!((0.05..0.08).contains(&cost), "cost {cost}");
    }

    #[test]
    fn labels_and_names_are_distinct() {
        let labels: std::collections::HashSet<_> = ModelId::ALL.iter().map(|m| m.label()).collect();
        assert_eq!(labels.len(), ModelId::ALL.len());
        let names: std::collections::HashSet<_> =
            ModelId::ALL.iter().map(|m| m.api_name()).collect();
        assert_eq!(names.len(), ModelId::ALL.len());
    }
}
