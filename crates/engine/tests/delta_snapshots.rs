//! Delta-compressed snapshots against live runs.
//!
//! `qlb_core::StateDelta` is the wire format the obs trailer checkpoint
//! and `ServeCore::state` export ride on, so its contract is pinned end to end here: a **chain of
//! per-round deltas** (each encoded old → new and serialized through the
//! byte format) applied to the initial assignment must reproduce the dense
//! final `State` bit-identically — across the full protocol registry, and
//! through churn episodes that displace users outside any protocol round
//! and force an `ActiveIndex` repair.
//!
//! The `large_n` test at the bottom is the nightly memory-scale smoke: a
//! pooled shard-owned run plus a whole-run delta round-trip at n = 10⁷
//! (ignored by default; CI's nightly job runs `-- --ignored large_n`).

use qlb_core::{ActiveIndex, Instance, ResourceId, State, StateDelta};
use qlb_engine::{perturb_uniform, run, Executor, RunConfig};

/// Encode one generation step and push the round-tripped bytes — every
/// delta in a chain crosses the serialized form, like the trailer's
/// does.
fn encode_step(chain: &mut Vec<StateDelta>, old: &[u32], new: &[u32]) {
    let gen = chain.len() as u64;
    let d = StateDelta::encode(old, new, gen, gen + 1);
    let d = StateDelta::from_bytes(&d.to_bytes()).expect("wire round trip");
    assert_eq!(d.base_gen(), gen);
    chain.push(d);
}

/// Apply a chain in order to `start` and return the replayed assignment.
fn replay(chain: &[StateDelta], start: &[u32]) -> Vec<u32> {
    let mut assign = start.to_vec();
    for (g, d) in chain.iter().enumerate() {
        d.apply(&mut assign, g as u64)
            .expect("chain applies in order");
    }
    assign
}

fn assignment_u32(state: &State) -> Vec<u32> {
    state.assignment().iter().map(|r| r.0).collect()
}

#[test]
fn delta_chain_reproduces_every_registry_protocol() {
    let inst = Instance::uniform(1600, 32, 120).unwrap();
    let start = State::all_on(&inst, ResourceId(0));
    for proto in qlb_core::registry(&inst) {
        let name = proto.name();
        let mut state = start.clone();
        let mut chain = Vec::new();
        let mut moves = Vec::new();
        for round in 0..400u64 {
            let before = assignment_u32(&state);
            qlb_core::step::decide_round_into(&inst, &state, proto.as_ref(), 13, round, &mut moves);
            state.apply_moves(&inst, &moves);
            encode_step(&mut chain, &before, &assignment_u32(&state));
            if moves.is_empty() && state.is_legal(&inst) {
                break;
            }
        }
        // the chain replay matches the dense trajectory's end state…
        let replayed = replay(&chain, &assignment_u32(&start));
        assert_eq!(replayed, assignment_u32(&state), "{name}: chain diverged");
        // …and so does applying the chain to a dense State clone
        let mut replica = start.clone();
        for (g, d) in chain.iter().enumerate() {
            d.apply_to_state(&mut replica, g as u64)
                .expect("state replay applies");
        }
        assert_eq!(replica, state, "{name}: State replay diverged");
        // a single whole-run delta says the same thing more compactly
        let whole = StateDelta::encode_states(&start, &state, 0, chain.len() as u64);
        let mut assign = assignment_u32(&start);
        whole
            .apply(&mut assign, 0)
            .expect("whole-run delta applies");
        assert_eq!(assign, assignment_u32(&state), "{name}: whole-run delta");
    }
}

#[test]
fn delta_chain_survives_churn_episodes_and_index_repair() {
    let inst = Instance::uniform(1200, 24, 80).unwrap();
    let start = State::all_on(&inst, ResourceId(0));
    let proto = qlb_core::SlackDamped::default();
    let mut state = start.clone();
    let mut index = ActiveIndex::new(&inst, &state);
    let mut chain = Vec::new();
    let mut moves = Vec::new();
    for round in 0..300u64 {
        let before = assignment_u32(&state);
        // churn episode every 40 rounds: displace users outside any
        // protocol round, then repair the sparse executor's index — the
        // delta must capture these moves exactly like protocol moves
        if round > 0 && round % 40 == 0 {
            let displaced = perturb_uniform(&inst, &mut state, 0.10, 99 + round);
            assert!(displaced > 0, "churn fraction never displaced anyone");
            index = ActiveIndex::new(&inst, &state);
        }
        qlb_core::step::decide_active_into(&inst, &state, &index, &proto, 31, round, &mut moves);
        index.apply_moves(&inst, &mut state, &moves);
        encode_step(&mut chain, &before, &assignment_u32(&state));
    }
    index.assert_consistent(&inst, &state);
    let replayed = replay(&chain, &assignment_u32(&start));
    assert_eq!(replayed, assignment_u32(&state), "churned chain diverged");
    // stale or out-of-order application is rejected, not silently wrong
    let mut assign = assignment_u32(&start);
    assert!(chain[1].apply(&mut assign, 0).is_err(), "gen gap accepted");
}

/// Nightly memory-scale smoke (run with `cargo test --release -- --ignored
/// large_n`): the pooled executor converges a 10⁷-user
/// hotspot run, and one whole-run delta reproduces its final assignment.
#[test]
#[ignore = "nightly large-n smoke: ~10^7 users, release build recommended"]
fn large_n_pooled_run_and_delta_round_trip() {
    let n = 10_000_000;
    let inst = Instance::uniform(n, n / 8, 10).unwrap();
    let start = State::all_on(&inst, ResourceId(0));
    let proto = qlb_core::SlackDamped::default();
    let out = run(
        &inst,
        start.clone(),
        &proto,
        RunConfig::new(7, 10_000).with_executor(Executor::Threaded(8)),
    );
    assert!(out.converged, "large-n pooled run must converge");
    let d = StateDelta::encode_states(&start, &out.state, 0, out.rounds);
    let d = StateDelta::from_bytes(&d.to_bytes()).expect("wire round trip");
    let mut assign = assignment_u32(&start);
    d.apply(&mut assign, 0).expect("whole-run delta applies");
    assert_eq!(assign, assignment_u32(&out.state), "large-n delta diverged");
}
