//! Writing a brand-new interval-centric algorithm: **temporal k-hop
//! influence** — for every vertex and every interval, how many distinct
//! sources within `k` time-respecting hops have influenced it.
//!
//! The point of the example is the authoring experience the paper claims
//! (Sec. IV): you write the non-temporal logic — hop-limited flooding with
//! a set union — and the time-warp operator supplies all the temporal
//! alignment. No interval arithmetic appears in the user code below
//! beyond choosing each message's validity window.
//!
//! ```sh
//! cargo run --release --example custom_algorithm
//! ```

use graphite::bsp::codec::{get_varint, put_varint, Wire};
use graphite::prelude::*;
use graphite::tgraph::fixtures::{transit_graph, transit_ids};
use std::sync::Arc;

/// Message: the originating seed and the remaining hop budget.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Influence {
    seed: u64,
    hops_left: u64,
}

impl Wire for Influence {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(self.seed, buf);
        put_varint(self.hops_left, buf);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some(Influence {
            seed: get_varint(buf)?,
            hops_left: get_varint(buf)?,
        })
    }
}

/// State: the sorted set of seeds that reached this vertex-interval, plus
/// the best remaining budget per seed (so deeper reach can still spread).
type Reached = Vec<(u64, u64)>; // (seed, best hops_left), sorted by seed

struct KHopInfluence {
    seeds: Vec<VertexId>,
    k: u64,
}

impl IntervalProgram for KHopInfluence {
    type State = Reached;
    type Msg = Influence;

    fn init(&self, _v: &VertexContext) -> Reached {
        Vec::new()
    }

    fn compute(
        &self,
        ctx: &mut ComputeContext<Reached, Influence>,
        t: Interval,
        state: &Reached,
        msgs: &[Influence],
    ) {
        if ctx.superstep() == 1 {
            if self.seeds.contains(&ctx.vid()) {
                ctx.set_state(t, vec![(ctx.vid().0, self.k)]);
            }
            return;
        }
        // Union the incoming influences into the state; keep the best
        // (largest) remaining budget per seed. Plain set logic — warp has
        // already guaranteed every message applies to all of `t`.
        let mut merged = state.clone();
        let mut changed = false;
        for m in msgs {
            match merged.binary_search_by_key(&m.seed, |e| e.0) {
                Ok(i) => {
                    if m.hops_left > merged[i].1 {
                        merged[i].1 = m.hops_left;
                        changed = true;
                    }
                }
                Err(i) => {
                    merged.insert(i, (m.seed, m.hops_left));
                    changed = true;
                }
            }
        }
        if changed {
            ctx.set_state(t, merged);
        }
    }

    fn scatter(&self, ctx: &mut ScatterContext<Influence>, t: Interval, state: &Reached) {
        // Time-respecting hop: usable from the earliest departure in the
        // scatter interval, arriving one tick later.
        let valid_from = Interval::from_start(t.start() + 1);
        for &(seed, hops_left) in state {
            if hops_left > 0 {
                ctx.send(
                    valid_from,
                    Influence {
                        seed,
                        hops_left: hops_left - 1,
                    },
                );
            }
        }
    }
}

fn main() {
    let graph = Arc::new(transit_graph());
    let program = Arc::new(KHopInfluence {
        seeds: vec![transit_ids::A, transit_ids::C],
        k: 2,
    });
    let result = run_icm(&graph, program, &IcmConfig::default(), None).expect("ICM run");

    println!("2-hop influence from seeds {{A, C}} over the transit network:\n");
    for (vid, states) in &result.states {
        let name = ["A", "B", "C", "D", "E", "F"][vid.0 as usize];
        let rendered: Vec<String> = states
            .iter()
            .map(|(iv, reached)| {
                let seeds: Vec<&str> = reached
                    .iter()
                    .map(|(s, _)| ["A", "B", "C", "D", "E", "F"][*s as usize])
                    .collect();
                format!("{iv} <- {{{}}}", seeds.join(","))
            })
            .collect();
        println!("  {name}: {}", rendered.join("  "));
    }

    // E should be influenced by C (C -> E is one hop, available from 6)
    // and, from time 10, by A (A -> B -> E lands at 9; A -> C -> E at 6
    // within 2 hops).
    let e_final = result
        .state_at(transit_ids::E, 20)
        .cloned()
        .unwrap_or_default();
    let seeds: Vec<u64> = e_final.iter().map(|(s, _)| *s).collect();
    assert!(seeds.contains(&transit_ids::C.0));
    assert!(seeds.contains(&transit_ids::A.0));
    println!(
        "\nE ends up influenced by {} seed(s); the whole run took {} supersteps and {} messages.",
        seeds.len(),
        result.metrics.supersteps,
        result.metrics.counters.messages_sent
    );
}
