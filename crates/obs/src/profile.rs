//! Span-time profiles: aggregate the recorded [`SpanEvent`] stream into a
//! hierarchical wall-time profile — per-span call count, total and *self*
//! time (total minus time spent in child spans), a per-worker-lane
//! breakdown, a top-N table, and folded-stacks output for flamegraph
//! tooling.
//!
//! Span boundaries are properly nested per `(track, lane)` stream (each
//! thread opens and closes its own spans in LIFO order), so reconstruction
//! is a stack walk per stream. Like the Chrome exporter this consumes wall
//! timestamps and is therefore *not* a deterministic sink — two runs
//! produce different numbers; the schema and the set of span names are
//! what is stable.

use crate::{Snapshot, SpanEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Aggregated timings for one node (either a span name or a full stack
/// path).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Number of times the span (or exact stack) was entered.
    pub count: u64,
    /// Total wall nanoseconds between begin and end, children included.
    pub total_ns: u64,
    /// Wall nanoseconds not covered by child spans.
    pub self_ns: u64,
}

/// A hierarchical wall-time profile built from a [`Snapshot`]'s span
/// events.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// Aggregates by span name, across all stacks and lanes.
    pub by_name: BTreeMap<&'static str, NodeStats>,
    /// Aggregates by full stack path (span names joined with `;`).
    pub by_stack: BTreeMap<String, NodeStats>,
    /// Self-time nanoseconds by `(span name, lane)` — the per-worker-lane
    /// breakdown.
    pub by_name_lane: BTreeMap<(&'static str, u32), u64>,
    /// Span boundaries that could not be matched (an end with no open
    /// span, or a begin left open at snapshot time). Nonzero means the
    /// profile under-counts those spans; it is never fatal.
    pub unmatched: u64,
}

/// Builds the profile for `snap`. Events are grouped into per-`(track,
/// lane)` streams (the per-thread recording order) and each stream is
/// walked with a stack; unmatched boundaries are dropped and counted in
/// [`Profile::unmatched`].
#[must_use]
pub fn profile(snap: &Snapshot) -> Profile {
    let mut p = Profile::default();
    // One properly-nested stream per (track, lane). A track's span vector
    // is already in recording order; splitting by lane separates the
    // threads that shared it (main + adopted workers).
    let mut streams: BTreeMap<(&[u32], u32), Vec<&SpanEvent>> = BTreeMap::new();
    for (path, data) in &snap.tracks {
        for ev in &data.spans {
            streams
                .entry((path.as_slice(), ev.lane))
                .or_default()
                .push(ev);
        }
    }
    for ((_, lane), events) in streams {
        // (name, begin t_ns, nanoseconds consumed by direct children)
        let mut stack: Vec<(&'static str, u64, u64)> = Vec::new();
        for ev in events {
            if ev.begin {
                stack.push((ev.name, ev.t_ns, 0));
                continue;
            }
            let Some(pos) = stack.iter().rposition(|(name, _, _)| *name == ev.name) else {
                p.unmatched += 1;
                continue;
            };
            // An end for a non-innermost frame means the frames above it
            // never closed; drop them as unmatched.
            p.unmatched += (stack.len() - 1 - pos) as u64;
            stack.truncate(pos + 1);
            let (name, begin_ns, child_ns) = stack.pop().expect("pos is in range");
            let total = ev.t_ns.saturating_sub(begin_ns);
            let self_ns = total.saturating_sub(child_ns);
            if let Some(parent) = stack.last_mut() {
                parent.2 += total;
            }
            let mut path = String::new();
            for (frame, _, _) in &stack {
                path.push_str(frame);
                path.push(';');
            }
            path.push_str(name);
            let by_name = p.by_name.entry(name).or_default();
            by_name.count += 1;
            by_name.total_ns += total;
            by_name.self_ns += self_ns;
            let by_stack = p.by_stack.entry(path).or_default();
            by_stack.count += 1;
            by_stack.total_ns += total;
            by_stack.self_ns += self_ns;
            *p.by_name_lane.entry((name, lane)).or_default() += self_ns;
        }
        p.unmatched += stack.len() as u64;
    }
    p
}

impl Profile {
    /// Human-readable top-`n` table by self time: one line per span name
    /// with count, total/self milliseconds, and the lane split.
    #[must_use]
    pub fn table(&self, n: usize) -> String {
        let mut rows: Vec<(&'static str, &NodeStats)> =
            self.by_name.iter().map(|(k, v)| (*k, v)).collect();
        rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
        rows.truncate(n);
        let mut out = String::from(
            "span                            count     total ms      self ms  lanes\n",
        );
        for (name, stats) in rows {
            let lanes: Vec<String> = self
                .by_name_lane
                .range((name, 0)..=(name, u32::MAX))
                .map(|((_, lane), ns)| format!("{lane}:{:.1}", *ns as f64 / 1e6))
                .collect();
            let _ = writeln!(
                out,
                "{name:<30} {count:>6} {total:>12.3} {self_ms:>12.3}  {lanes}",
                count = stats.count,
                total = stats.total_ns as f64 / 1e6,
                self_ms = stats.self_ns as f64 / 1e6,
                lanes = lanes.join(" "),
            );
        }
        if self.unmatched > 0 {
            let _ = writeln!(
                out,
                "({} unmatched span boundaries dropped)",
                self.unmatched
            );
        }
        out
    }

    /// Folded-stacks output (`a;b;c self_ns` per line, sorted by stack),
    /// directly consumable by `flamegraph.pl` / `inferno`.
    #[must_use]
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (stack, stats) in &self.by_stack {
            if stats.self_ns > 0 {
                let _ = writeln!(out, "{stack} {}", stats.self_ns);
            }
        }
        out
    }

    /// Canonical JSON document, schema `shm-obs/profile/v1`.
    #[must_use]
    pub fn to_json(&self) -> String {
        fn node(out: &mut String, stats: &NodeStats) {
            let _ = write!(
                out,
                "{{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                stats.count, stats.total_ns, stats.self_ns
            );
        }
        let mut out = String::from("{\n  \"schema\": \"shm-obs/profile/v1\",\n");
        let _ = write!(
            out,
            "  \"unmatched\": {},\n  \"by_name\": {{",
            self.unmatched
        );
        let mut first = true;
        for (name, stats) in &self.by_name {
            out.push_str(if first { "\n" } else { ",\n" });
            first = false;
            let _ = write!(out, "    \"{name}\": ");
            node(&mut out, stats);
            let lanes: Vec<String> = self
                .by_name_lane
                .range((*name, 0)..=(*name, u32::MAX))
                .map(|((_, lane), ns)| format!("\"{lane}\": {ns}"))
                .collect();
            out.pop(); // reopen the node object to append the lane map
            let _ = write!(out, ", \"self_ns_by_lane\": {{{}}}}}", lanes.join(", "));
        }
        out.push_str("\n  },\n  \"by_stack\": {");
        first = true;
        for (stack, stats) in &self.by_stack {
            out.push_str(if first { "\n" } else { ",\n" });
            first = false;
            let _ = write!(out, "    \"{}\": ", crate::json::escape(stack));
            node(&mut out, stats);
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SpanEvent, TrackData};

    fn ev(name: &'static str, begin: bool, lane: u32, t_ns: u64) -> SpanEvent {
        SpanEvent {
            name,
            begin,
            lane,
            t_ns,
        }
    }

    /// outer [0, 1000] wraps inner [200, 500] and inner [600, 700]:
    /// outer total = 1000, self = 600; inner count 2, total = self = 400.
    #[test]
    fn nested_spans_split_total_and_self_exactly() {
        let mut t = TrackData::default();
        for e in [
            ev("outer", true, 0, 0),
            ev("inner", true, 0, 200),
            ev("inner", false, 0, 500),
            ev("inner", true, 0, 600),
            ev("inner", false, 0, 700),
            ev("outer", false, 0, 1000),
        ] {
            t.spans.push(e);
        }
        let p = profile(&Snapshot {
            tracks: vec![(vec![], t)],
        });
        assert_eq!(p.unmatched, 0);
        assert_eq!(
            p.by_name["outer"],
            NodeStats {
                count: 1,
                total_ns: 1000,
                self_ns: 600
            }
        );
        assert_eq!(
            p.by_name["inner"],
            NodeStats {
                count: 2,
                total_ns: 400,
                self_ns: 400
            }
        );
        assert_eq!(p.by_stack["outer"].self_ns, 600);
        assert_eq!(p.by_stack["outer;inner"].count, 2);
        assert_eq!(p.by_stack["outer;inner"].total_ns, 400);
        assert_eq!(p.folded(), "outer 600\nouter;inner 400\n");
    }

    #[test]
    fn grandchildren_charge_only_their_direct_parent() {
        // a [0,100] > b [10,90] > c [20,30]: a.self = 20, b.self = 70,
        // c.self = 10.
        let mut t = TrackData::default();
        for e in [
            ev("a", true, 0, 0),
            ev("b", true, 0, 10),
            ev("c", true, 0, 20),
            ev("c", false, 0, 30),
            ev("b", false, 0, 90),
            ev("a", false, 0, 100),
        ] {
            t.spans.push(e);
        }
        let p = profile(&Snapshot {
            tracks: vec![(vec![], t)],
        });
        assert_eq!(p.by_name["a"].self_ns, 20);
        assert_eq!(p.by_name["b"].self_ns, 70);
        assert_eq!(p.by_name["c"].self_ns, 10);
        assert_eq!(p.folded(), "a 20\na;b 70\na;b;c 10\n");
    }

    #[test]
    fn lanes_and_tracks_are_independent_streams() {
        // The same span name on two lanes of one track, plus a second
        // track: three independent stacks.
        let mut t0 = TrackData::default();
        for e in [
            ev("job", true, 0, 0),
            ev("job", true, 1, 10),
            ev("job", false, 1, 30),
            ev("job", false, 0, 100),
        ] {
            t0.spans.push(e);
        }
        let mut t1 = TrackData::default();
        t1.spans.push(ev("job", true, 2, 50));
        t1.spans.push(ev("job", false, 2, 60));
        let p = profile(&Snapshot {
            tracks: vec![(vec![0], t0), (vec![1], t1)],
        });
        assert_eq!(p.unmatched, 0);
        assert_eq!(p.by_name["job"].count, 3);
        assert_eq!(p.by_name["job"].total_ns, 100 + 20 + 10);
        // Same-name events on different lanes never nest into each other.
        assert_eq!(p.by_stack["job"].count, 3);
        assert_eq!(p.by_name_lane[&("job", 0)], 100);
        assert_eq!(p.by_name_lane[&("job", 1)], 20);
        assert_eq!(p.by_name_lane[&("job", 2)], 10);
    }

    #[test]
    fn unmatched_boundaries_are_counted_not_fatal() {
        let mut t = TrackData::default();
        t.spans.push(ev("open_forever", true, 0, 0));
        t.spans.push(ev("never_opened", false, 0, 10));
        let p = profile(&Snapshot {
            tracks: vec![(vec![], t)],
        });
        assert_eq!(p.unmatched, 2);
        assert!(p.by_name.is_empty());
    }

    #[test]
    fn table_and_json_render() {
        let mut t = TrackData::default();
        for e in [
            ev("outer", true, 0, 0),
            ev("inner", true, 0, 100),
            ev("inner", false, 0, 2_000_100),
            ev("outer", false, 0, 3_000_000),
        ] {
            t.spans.push(e);
        }
        let p = profile(&Snapshot {
            tracks: vec![(vec![], t)],
        });
        let table = p.table(10);
        assert!(table.contains("outer"));
        assert!(table.contains("0:2.0"), "lane split present: {table}");
        // top-1 by self time is inner (2 ms self vs outer's 1 ms).
        let top1 = p.table(1);
        assert!(top1.contains("inner") && !top1.contains("outer"));
        let json = p.to_json();
        assert!(json.contains("\"schema\": \"shm-obs/profile/v1\""));
        assert!(json.contains("\"inner\": {\"count\": 1, \"total_ns\": 2000000, \"self_ns\": 2000000, \"self_ns_by_lane\": {\"0\": 2000000}}"));
        assert!(json.contains(
            "\"outer;inner\": {\"count\": 1, \"total_ns\": 2000000, \"self_ns\": 2000000}"
        ));
        assert!(json.contains("\"unmatched\": 0"));
    }
}
