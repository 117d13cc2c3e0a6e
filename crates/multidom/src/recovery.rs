//! Coordinated restart: run the rank loop under a checkpoint plan,
//! and on a rank failure roll **every** rank back to the newest globally
//! consistent checkpoint wave and rerun. Deterministic stepping makes the
//! recovered trajectory bit-identical to an uninterrupted run — the
//! failure-injection suite asserts final energies to the last bit.
//!
//! This is the in-process analogue of the `lulesh-multidom --respawn`
//! launcher loop: the "kill" is a [`FaultPlan::die_at`] entry instead of a
//! dead process, and the "respawn" is a fresh transport mesh instead of a
//! fresh process. One `die_at` entry is consumed per attempt, mirroring a
//! real fleet where each incarnation of the job can fail once.

use crate::{run, FaultPlan, MdError, ResilPlan, RunSpec};
use lulesh_core::domain::Domain;
use lulesh_core::params::SimState;

/// The outcome of a [`run_with_recovery`] job.
#[derive(Debug)]
pub struct RecoveryReport {
    /// Per-rank results of the final (successful or abandoned) attempt.
    pub results: Vec<Result<(Domain, SimState), MdError>>,
    /// Completed attempts (1 = no failure ever observed).
    pub attempts: usize,
    /// The cycle each restart resumed from, in order.
    pub resumed_from: Vec<u64>,
}

/// Run `spec` with checkpointing every `spec.resil.ckpt.period` cycles;
/// when any rank dies (injected via `spec.faults.die_at`, one entry per
/// attempt), restart every rank from [`resil::latest_consistent_cycle`]
/// until the job completes or `max_attempts` is exhausted. Panics if the
/// spec has no checkpoint configuration.
pub fn run_with_recovery(spec: &RunSpec, max_attempts: usize) -> RecoveryReport {
    let ckpt = spec
        .resil
        .ckpt
        .clone()
        .expect("run_with_recovery needs spec.resil.ckpt");
    let ranks = spec.decomp.ranks();
    let mut resumed_from = Vec::new();
    let mut resume_cycle = spec.resil.resume_cycle;
    for attempt in 0..max_attempts.max(1) {
        // Attempt `a` injects only the a-th kill: each incarnation of the
        // job dies at most once, like a real re-launched fleet. Kills at
        // or before the resume point are unreachable replays — the
        // launcher equivalent filters them the same way.
        let faults = FaultPlan {
            die_at: spec
                .faults
                .die_at
                .get(attempt)
                .filter(|&&(_, c)| resume_cycle.is_none_or(|rc| c > rc))
                .into_iter()
                .copied()
                .collect(),
            ..spec.faults.clone()
        };
        let resil = ResilPlan {
            ckpt: Some(ckpt.clone()),
            resume_cycle,
        };
        let results = run(&RunSpec {
            faults,
            resil,
            ..spec.clone()
        });
        let failed = results.iter().any(|r| matches!(r, Err(MdError::Net(_))));
        if !failed || attempt + 1 == max_attempts.max(1) {
            return RecoveryReport {
                results,
                attempts: attempt + 1,
                resumed_from,
            };
        }
        // Roll back to the newest wave where every rank has a
        // checksum-valid snapshot; a partial wave is never resumed from.
        // No wave at all means restart from scratch.
        resume_cycle = resil::latest_consistent_cycle(&ckpt.dir, ranks);
        if let Some(c) = resume_cycle {
            resumed_from.push(c);
        }
    }
    unreachable!("loop returns on success or final attempt")
}
