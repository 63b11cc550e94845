//! The timing layer: stamps events, matches spans, fans out to sinks.

use crate::clock::Clock;
use crate::event::{Event, SpanEdge, SpanKey};

/// One stamped event as delivered to a [`TraceSink`].
#[derive(Debug, Clone, Copy)]
pub struct Record<'a> {
    /// 0-based position in the trace (strictly increasing).
    pub seq: u64,
    /// Clock reading when the event was observed (monotone).
    pub t_ns: u64,
    /// For `run_end` / `iter_end` / `stage_end`: nanoseconds since the
    /// matching begin event. `None` for non-span events.
    pub dur_ns: Option<u64>,
    /// The event itself.
    pub event: &'a Event,
}

/// Consumes stamped records (a serializer, an aggregator, …).
pub trait TraceSink {
    /// Handle one record.
    fn record(&mut self, record: &Record<'_>);

    /// Flush/close any underlying resources. Called once, after the run.
    fn finish(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Stamps each incoming [`Event`] with a sequence number and a clock
/// reading, computes span durations by matching begin/end pairs, and
/// forwards the resulting [`Record`] to every attached [`TraceSink`].
///
/// The clock is injected: [`SystemClock`](crate::SystemClock) for real
/// runs, [`ManualClock`](crate::ManualClock) for deterministic tests and
/// golden traces.
///
/// Clock and sinks are `Send` so a tracer can live behind a
/// [`SharedObserver`](crate::SharedObserver) that worker threads emit
/// into; sequence numbers are assigned under that handle's lock, so `seq`
/// stays strictly sequential even under concurrent emission.
pub struct Tracer {
    clock: Box<dyn Clock + Send>,
    sinks: Vec<Box<dyn TraceSink + Send>>,
    seq: u64,
    open: Vec<(SpanKey, u64)>,
}

impl Tracer {
    /// A tracer with no sinks (attach them with [`add_sink`](Self::add_sink)).
    pub fn new(clock: Box<dyn Clock + Send>) -> Self {
        Tracer {
            clock,
            sinks: Vec::new(),
            seq: 0,
            open: Vec::new(),
        }
    }

    /// Attach a sink.
    pub fn add_sink(&mut self, sink: Box<dyn TraceSink + Send>) {
        self.sinks.push(sink);
    }

    /// Builder form of [`add_sink`](Self::add_sink).
    pub fn with_sink(mut self, sink: Box<dyn TraceSink + Send>) -> Self {
        self.add_sink(sink);
        self
    }

    /// Events observed so far.
    pub fn events(&self) -> u64 {
        self.seq
    }

    /// Close the most recent open span matching `key` and return its begin
    /// time.
    fn close_span(&mut self, key: SpanKey) -> Option<u64> {
        let pos = self.open.iter().rposition(|(k, _)| *k == key)?;
        Some(self.open.remove(pos).1)
    }
}

impl crate::RunObserver for Tracer {
    fn on_event(&mut self, event: &Event) {
        let t_ns = self.clock.now_ns();
        let dur_ns = match event.span_edge() {
            Some(SpanEdge::Open(key)) => {
                self.open.push((key, t_ns));
                None
            }
            // An unmatched end (producer bug) gets duration 0 rather than
            // being dropped: the trace stays complete and the validator
            // will flag the broken nesting.
            Some(SpanEdge::Close(key)) => Some(
                self.close_span(key)
                    .map_or(0, |begin| t_ns.saturating_sub(begin)),
            ),
            None => None,
        };
        let record = Record {
            seq: self.seq,
            t_ns,
            dur_ns,
            event,
        };
        self.seq += 1;
        for sink in &mut self.sinks {
            sink.record(&record);
        }
    }

    fn finish(&mut self) -> std::io::Result<()> {
        let mut first_err = None;
        for sink in &mut self.sinks {
            if let Err(e) = sink.finish() {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::event::Stage;
    use crate::RunObserver;
    use std::sync::{Arc, Mutex};

    #[derive(Default)]
    struct Captured(Vec<(u64, u64, Option<u64>, String)>);

    #[derive(Clone, Default)]
    struct CaptureSink(Arc<Mutex<Captured>>);

    impl TraceSink for CaptureSink {
        fn record(&mut self, r: &Record<'_>) {
            self.0
                .lock()
                .unwrap()
                .0
                .push((r.seq, r.t_ns, r.dur_ns, r.event.kind().to_string()));
        }
    }

    #[test]
    fn spans_get_durations_from_the_clock() {
        let cap = CaptureSink::default();
        let mut t = Tracer::new(Box::new(ManualClock::new(100)));
        t.add_sink(Box::new(cap.clone()));
        t.on_event(&Event::StageBegin {
            iter: 0,
            stage: Stage::Select,
        }); // t = 0
        t.on_event(&Event::Counter {
            counter: crate::Counter::CacheHit,
            delta: 1,
        }); // t = 100
        t.on_event(&Event::StageEnd {
            iter: 0,
            stage: Stage::Select,
        }); // t = 200, dur = 200
        let got = cap.0.lock().unwrap();
        assert_eq!(got.0[0], (0, 0, None, "stage_begin".into()));
        assert_eq!(got.0[1], (1, 100, None, "counter".into()));
        assert_eq!(got.0[2], (2, 200, Some(200), "stage_end".into()));
    }

    #[test]
    fn nested_spans_match_innermost_first() {
        let cap = CaptureSink::default();
        let mut t = Tracer::new(Box::new(ManualClock::new(10)));
        t.add_sink(Box::new(cap.clone()));
        t.on_event(&Event::IterationBegin {
            iter: 3,
            instance: 7,
        }); // t=0
        t.on_event(&Event::StageBegin {
            iter: 3,
            stage: Stage::Generate,
        }); // t=10
        t.on_event(&Event::StageEnd {
            iter: 3,
            stage: Stage::Generate,
        }); // t=20 dur=10
        t.on_event(&Event::IterationEnd {
            iter: 3,
            accepted: 0,
            rejected: 0,
            failed: false,
        }); // t=30 dur=30
        let got = cap.0.lock().unwrap();
        assert_eq!(got.0[2].2, Some(10));
        assert_eq!(got.0[3].2, Some(30));
    }

    #[test]
    fn unmatched_end_gets_zero_duration() {
        let cap = CaptureSink::default();
        let mut t = Tracer::new(Box::new(ManualClock::new(10)));
        t.add_sink(Box::new(cap.clone()));
        t.on_event(&Event::StageEnd {
            iter: 9,
            stage: Stage::Revise,
        });
        assert_eq!(cap.0.lock().unwrap().0[0].2, Some(0));
    }
}
