//! In-memory spans for the traced pass: `{name, start, end, parent,
//! point}` plus the allocations made inside, kept in a `Vec` and
//! written once, at exit, as Chrome trace JSON (loadable in Perfetto /
//! `chrome://tracing`).

use crate::alloc::allocs;
use campaign::json::Value;
use std::time::Instant;

/// Where a layer boundary reports to. Code shared by the end-to-end and
/// the traced pass is generic over this, so the end-to-end
/// instantiation ([`Untraced`]) compiles to the bare calls.
pub trait Probe {
    /// Run `f` as the layer `name`.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T;
}

/// The end-to-end side's probe: records nothing.
pub struct Untraced;

impl Probe for Untraced {
    #[inline(always)]
    fn span<T>(&mut self, _name: &'static str, f: impl FnOnce() -> T) -> T {
        f()
    }
}

impl Probe for Spans {
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.time(name, None, f).0
    }
}

/// One closed (or still open) span. Times are ns since the recorder's
/// epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer name (`netsim.sim.run`, `campaign.store.write`, …).
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The campaign point (index within its round) the span belongs to.
    pub point: Option<usize>,
    /// Allocations made while the span was open, children included
    /// (0 unless the counting allocator is installed).
    pub allocs: u64,
}

/// What the spans of one name add up to under some root span.
#[derive(Debug, Clone, Copy, Default)]
pub struct Total {
    /// Spans of this name.
    pub count: u64,
    /// Their summed duration, ns.
    pub ns: u64,
    /// Their summed self time: duration minus what direct children
    /// cover.
    pub self_ns: u64,
    /// Allocations made inside them.
    pub allocs: u64,
}

/// The span recorder: a stack of open spans gives each new span its
/// parent.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Spans {
    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, point: Option<usize>) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            point,
            allocs: allocs(),
        });
        self.open.push(id);
        // the clock is read last so recorder bookkeeping stays outside
        self.spans[id].start_ns = self.epoch.elapsed().as_nanos() as u64;
        id
    }

    /// Close the innermost open span, which must be `id`; returns its
    /// duration in ns.
    pub fn exit(&mut self, id: usize) -> u64 {
        let end = self.epoch.elapsed().as_nanos() as u64;
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        self.spans[id].end_ns = end;
        self.spans[id].allocs = allocs() - self.spans[id].allocs;
        end - self.spans[id].start_ns
    }

    /// Time `f` under a span; returns its result and the duration in ns.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        point: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.enter(name, point);
        let out = f();
        (out, self.exit(id))
    }

    /// Every span recorded so far.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Per name, what the closed spans under `root` (inclusive) add up
    /// to, in first-seen order.
    pub fn totals_under(&self, root: usize) -> Vec<(&'static str, Total)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut inside = vec![false; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate().skip(root) {
            // parents always precede their children in the vector
            inside[i] = i == root || s.parent.is_some_and(|p| inside[p]);
            if let (true, Some(p)) = (inside[i], s.parent) {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: Vec<(&'static str, Total)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate().skip(root) {
            if !inside[i] {
                continue;
            }
            let at = match out.iter().position(|(n, _)| *n == s.name) {
                Some(at) => at,
                None => {
                    out.push((s.name, Total::default()));
                    out.len() - 1
                }
            };
            let dur = s.end_ns - s.start_ns;
            let t = &mut out[at].1;
            t.count += 1;
            t.ns += dur;
            t.self_ns += dur.saturating_sub(child_ns[i]);
            t.allocs += s.allocs;
        }
        out
    }

    /// Chrome trace JSON: one complete (`"ph":"X"`) event per span, with
    /// the causing span and the campaign point in `args`.
    pub fn to_chrome_json(&self) -> String {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut args = vec![("id".to_string(), Value::num(id as f64))];
                if let Some(p) = s.parent {
                    args.push(("parent".into(), Value::num(p as f64)));
                }
                if let Some(p) = s.point {
                    args.push(("point".into(), Value::num(p as f64)));
                }
                args.push(("allocs".into(), Value::num(s.allocs as f64)));
                Value::Obj(vec![
                    ("name".into(), Value::str(s.name)),
                    ("ph".into(), Value::str("X")),
                    ("ts".into(), Value::num(s.start_ns as f64 / 1e3)),
                    (
                        "dur".into(),
                        Value::num(s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3),
                    ),
                    ("pid".into(), Value::num(1.0)),
                    ("tid".into(), Value::num(1.0)),
                    ("args".into(), Value::Obj(args)),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("displayTimeUnit".into(), Value::str("ms")),
            ("traceEvents".into(), Value::Arr(events)),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut s = Spans::default();
        let root = s.enter("round", None);
        let a = s.enter("a", Some(0));
        let b = s.enter("b", Some(0));
        s.exit(b);
        s.exit(a);
        s.exit(root);
        let spans = s.all();
        assert_eq!(spans[b].parent, Some(a));
        assert_eq!(spans[a].parent, Some(root));
        let totals = s.totals_under(root);
        let (t_round, t_a, t_b) = (totals[0].1, totals[1].1, totals[2].1);
        assert_eq!(t_round.self_ns, t_round.ns - t_a.ns);
        assert_eq!(t_a.self_ns, t_a.ns - t_b.ns);
        assert_eq!(t_b.self_ns, t_b.ns);
        assert_eq!(s.totals_under(a).len(), 2, "the root's own span is outside");
        assert!(campaign::json::parse(&s.to_chrome_json()).is_ok());
    }
}
