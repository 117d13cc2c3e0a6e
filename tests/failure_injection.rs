//! Failure injection: the reference aborts on two conditions (negative
//! element volumes, runaway artificial viscosity). Every driver — serial,
//! fork-join, many-task, multi-domain — must detect the same conditions
//! and surface them as typed errors instead of corrupting state or
//! hanging.

use lulesh::core::{serial, Domain, LuleshError};
use lulesh::omp::OmpLulesh;
use lulesh::task::{PartitionPlan, TaskLulesh};
use std::sync::Arc;

/// Corrupt one element's relative volume so the EOS bounds check trips on
/// the first iteration.
fn poison_volume(d: &Domain) {
    d.set_v(d.num_elem() / 2, -0.25);
}

/// Lower the q abort threshold below any value the blast produces, so the
/// q-stop check trips once viscosity develops.
fn hair_trigger_qstop(d: &mut Domain) {
    d.params.qstop = 1e-30;
}

#[test]
fn serial_detects_poisoned_volume() {
    let d = Domain::build(6, 2, 1, 1, 0);
    poison_volume(&d);
    assert_eq!(serial::run(&d, 5), Err(LuleshError::VolumeError));
}

#[test]
fn omp_detects_poisoned_volume() {
    let d = Domain::build(6, 2, 1, 1, 0);
    poison_volume(&d);
    let mut omp = OmpLulesh::new(3);
    assert_eq!(omp.run(&d, 5), Err(LuleshError::VolumeError));
}

#[test]
fn task_detects_poisoned_volume() {
    let d = Arc::new(Domain::build(6, 2, 1, 1, 0));
    poison_volume(&d);
    let task = TaskLulesh::new(3);
    assert_eq!(
        task.run(&d, PartitionPlan::fixed(16, 16), 5),
        Err(LuleshError::VolumeError)
    );
}

#[test]
fn multidom_detects_poisoned_volume_on_any_rank() {
    // Poison an element on the *upper* rank: the error must surface from
    // the lockstep world all the same.
    let mut world = multidom::World::build(multidom::Decomposition::new(6, 2), 2, 1, 1, 0);
    let upper = &world.domains[1];
    upper.set_v(upper.num_elem() / 2, -1.0);
    assert_eq!(world.run(5), Err(LuleshError::VolumeError));
}

#[test]
fn serial_detects_qstop() {
    let mut d = Domain::build(6, 2, 1, 1, 0);
    hair_trigger_qstop(&mut d);
    let r = serial::run(&d, 50);
    assert_eq!(r, Err(LuleshError::QStopError));
}

#[test]
fn omp_detects_qstop() {
    let mut d = Domain::build(6, 2, 1, 1, 0);
    hair_trigger_qstop(&mut d);
    let mut omp = OmpLulesh::new(2);
    assert_eq!(omp.run(&d, 50), Err(LuleshError::QStopError));
}

#[test]
fn task_detects_qstop() {
    let mut d = Domain::build(6, 2, 1, 1, 0);
    hair_trigger_qstop(&mut d);
    let d = Arc::new(d);
    let task = TaskLulesh::new(2);
    assert_eq!(
        task.run(&d, PartitionPlan::fixed(32, 32), 50),
        Err(LuleshError::QStopError)
    );
}

#[test]
fn all_drivers_fail_on_the_same_cycle() {
    // The q-stop condition is state-dependent; since all drivers compute
    // identical states, they must fail at the same iteration.
    let cycle_of = |r: Result<lulesh::core::SimState, LuleshError>| match r {
        Err(_) => None::<u64>,
        Ok(s) => Some(s.cycle),
    };
    let mut ds = Domain::build(6, 3, 1, 1, 0);
    hair_trigger_qstop(&mut ds);
    let serial_res = serial::run(&ds, 50);
    assert!(serial_res.is_err());
    assert!(cycle_of(serial_res).is_none());

    // Find the exact failing cycle by bisection-free replay: run k cycles
    // at a time until the error appears.
    let failing_cycle = {
        let mut k = 0;
        loop {
            k += 1;
            let mut d = Domain::build(6, 3, 1, 1, 0);
            hair_trigger_qstop(&mut d);
            match serial::run(&d, k) {
                Ok(_) => continue,
                Err(_) => break k,
            }
        }
    };

    // One cycle earlier must succeed in every driver; the failing cycle
    // must fail in every driver.
    for cycles in [failing_cycle - 1, failing_cycle] {
        let expect_err = cycles == failing_cycle;

        let mut d = Domain::build(6, 3, 1, 1, 0);
        hair_trigger_qstop(&mut d);
        assert_eq!(
            serial::run(&d, cycles).is_err(),
            expect_err,
            "serial at {cycles}"
        );

        let mut d = Domain::build(6, 3, 1, 1, 0);
        hair_trigger_qstop(&mut d);
        let mut omp = OmpLulesh::new(2);
        assert_eq!(omp.run(&d, cycles).is_err(), expect_err, "omp at {cycles}");

        let mut d = Domain::build(6, 3, 1, 1, 0);
        hair_trigger_qstop(&mut d);
        let d = Arc::new(d);
        let task = TaskLulesh::new(2);
        assert_eq!(
            task.run(&d, PartitionPlan::fixed(24, 24), cycles).is_err(),
            expect_err,
            "task at {cycles}"
        );
    }
}

#[test]
fn error_is_reported_not_panicked() {
    // A poisoned run must return Err — never panic a worker thread or hang.
    let d = Arc::new(Domain::build(5, 2, 1, 1, 0));
    poison_volume(&d);
    let task = TaskLulesh::new(4);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        task.run(&d, PartitionPlan::fixed(8, 8), 3)
    }));
    assert!(matches!(result, Ok(Err(LuleshError::VolumeError))));
}

#[test]
fn lockstep_multidom_detects_error_on_upper_rank() {
    let decomp = multidom::Decomposition::new(6, 3);
    let mut world = multidom::World::build(decomp, 2, 1, 1, 0);
    world.domains[2].set_v(0, -1.0);
    assert_eq!(world.run(5), Err(LuleshError::VolumeError));
}

#[test]
fn threaded_multidom_aborts_cleanly_across_ranks() {
    // Hair-trigger qstop on every rank: the error develops mid-run on the
    // rank holding the blast (rank 0) while the others are healthy — they
    // must all unblock through the error-carrying dt allreduce and return
    // the same Err, with no panic and no hang.
    let params = lulesh::core::Params {
        qstop: 1e-30,
        ..Default::default()
    };
    let r = multidom::gather(multidom::run(&multidom::RunSpec::new(
        multidom::Decomposition::new(6, 3),
        multidom::SimArgs {
            params,
            ..multidom::SimArgs::new(2, 1, 1, 0, 50)
        },
    )));
    assert_eq!(r.err(), Some(LuleshError::QStopError));
}

#[test]
fn taskpar_multidom_aborts_cleanly_across_ranks() {
    let params = lulesh::core::Params {
        qstop: 1e-30,
        ..Default::default()
    };
    let r = multidom::gather(multidom::run(&multidom::RunSpec {
        executor: multidom::Executor::Tasks {
            threads: 2,
            plan: PartitionPlan::fixed(24, 24),
            overlap: false,
        },
        ..multidom::RunSpec::new(
            multidom::Decomposition::new(6, 2),
            multidom::SimArgs {
                params,
                ..multidom::SimArgs::new(2, 1, 1, 0, 50)
            },
        )
    }));
    assert_eq!(r.err(), Some(LuleshError::QStopError));
}

// ---------------------------------------------------------------------------
// Multi-domain fault injection over real transports: a fault on ONE rank
// must surface as the SAME typed error on EVERY rank, over both the channel
// and the TCP-loopback transport, without deadlock (bounded by the recv
// deadline). Sim errors ride the dt allreduce; a killed rank cascades a
// typed `ParcelError` to every survivor.
// ---------------------------------------------------------------------------

use multidom::{
    Decomposition, Executor, FaultPlan, MdError, ResilPlan, RunSpec, SimArgs, TransportKind,
};
use std::time::{Duration, Instant};

const TRANSPORTS: [TransportKind; 2] = [TransportKind::Channel, TransportKind::TcpLoopback];
const DEADLINE: Duration = Duration::from_secs(5);

/// Run both multi-domain drivers over `kind` with `faults` and hand each
/// driver's per-rank outcomes (as `Result<(), MdError>`) to `check`.
fn for_both_drivers(
    kind: TransportKind,
    sim: SimArgs,
    faults: FaultPlan,
    check: impl Fn(&str, Vec<Result<(), MdError>>),
) {
    let decomp = Decomposition::new(6, 3);
    let r = multidom::run(&RunSpec {
        transport: kind,
        deadline: DEADLINE,
        faults: faults.clone(),
        ..RunSpec::new(decomp, sim)
    });
    check("threaded", r.into_iter().map(|r| r.map(|_| ())).collect());
    let r = multidom::run(&RunSpec {
        transport: kind,
        deadline: DEADLINE,
        faults,
        executor: Executor::Tasks {
            threads: 2,
            plan: PartitionPlan::fixed(16, 16),
            overlap: false,
        },
        ..RunSpec::new(decomp, sim)
    });
    check("taskpar", r.into_iter().map(|r| r.map(|_| ())).collect());
}

#[test]
fn poisoned_rank_fails_every_rank_over_both_transports() {
    for kind in TRANSPORTS {
        for_both_drivers(
            kind,
            SimArgs::new(2, 1, 1, 0, 5),
            FaultPlan {
                poison_volume: Some(1),
                ..FaultPlan::NONE
            },
            |driver, results| {
                assert_eq!(results.len(), 3);
                for (rank, r) in results.into_iter().enumerate() {
                    assert!(
                        matches!(r, Err(MdError::Sim(LuleshError::VolumeError))),
                        "{driver}/{kind:?} rank {rank}: poisoned volume on rank 1 \
                         must surface as VolumeError on every rank, got {r:?}"
                    );
                }
            },
        );
    }
}

#[test]
fn hair_trigger_qstop_fails_every_rank_over_both_transports() {
    let sim = SimArgs {
        params: lulesh::core::Params {
            qstop: 1e-30,
            ..Default::default()
        },
        ..SimArgs::new(2, 1, 1, 0, 50)
    };
    for kind in TRANSPORTS {
        for_both_drivers(kind, sim, FaultPlan::NONE, |driver, results| {
            for (rank, r) in results.into_iter().enumerate() {
                assert!(
                    matches!(r, Err(MdError::Sim(LuleshError::QStopError))),
                    "{driver}/{kind:?} rank {rank}: expected QStopError, got {r:?}"
                );
            }
        });
    }
}

#[test]
fn killed_rank_surfaces_typed_parcel_error_on_every_survivor() {
    // Rank 1 (the middle rank, linked to both neighbours) abandons the
    // protocol at cycle 3. Every survivor must come back with a typed
    // `ParcelError` — not a hang, not a panic — within the recv deadline.
    for kind in TRANSPORTS {
        let t0 = Instant::now();
        for_both_drivers(
            kind,
            SimArgs::new(2, 1, 1, 0, 50),
            FaultPlan {
                die_at: vec![(1, 3)],
                ..FaultPlan::NONE
            },
            |driver, results| {
                for (rank, r) in results.into_iter().enumerate() {
                    assert!(
                        matches!(r, Err(MdError::Net(_))),
                        "{driver}/{kind:?} rank {rank}: expected a typed ParcelError \
                         after rank 1 died, got {r:?}"
                    );
                }
            },
        );
        // Two drivers ran; each is bounded by a small number of deadline
        // windows (the dt star can serialise one timeout per link).
        assert!(
            t0.elapsed() < 6 * DEADLINE,
            "{kind:?}: survivors took {:?} — deadline did not bound the hang",
            t0.elapsed()
        );
    }
}

#[test]
fn rank_killed_at_tcp_handshake_times_out_on_every_survivor() {
    // Rank 1 is killed *before* it dials the TCP bootstrap. The recv
    // deadline applies during the rank handshake too, so the survivors'
    // accepts and dials must come back with a typed `ParcelError` within
    // the deadline — never a hang at startup.
    let short = Duration::from_millis(1500);
    let faults = FaultPlan {
        die_at_handshake: Some(1),
        ..FaultPlan::NONE
    };
    let decomp = Decomposition::new(6, 3);
    for driver in ["threaded", "taskpar"] {
        let t0 = Instant::now();
        let results: Vec<Result<(), MdError>> = match driver {
            "threaded" => multidom::run(&RunSpec {
                transport: TransportKind::TcpLoopback,
                deadline: short,
                faults: faults.clone(),
                ..RunSpec::new(decomp, SimArgs::new(2, 1, 1, 0, 5))
            })
            .into_iter()
            .map(|r| r.map(|_| ()))
            .collect(),
            _ => multidom::run(&RunSpec {
                transport: TransportKind::TcpLoopback,
                deadline: short,
                faults: faults.clone(),
                executor: Executor::Tasks {
                    threads: 2,
                    plan: PartitionPlan::fixed(16, 16),
                    overlap: false,
                },
                ..RunSpec::new(decomp, SimArgs::new(2, 1, 1, 0, 5))
            })
            .into_iter()
            .map(|r| r.map(|_| ()))
            .collect(),
        };
        assert_eq!(results.len(), 3);
        for (rank, r) in results.into_iter().enumerate() {
            assert!(
                matches!(r, Err(MdError::Net(_))),
                "{driver} rank {rank}: expected a typed ParcelError after rank 1 \
                 was killed at the handshake, got {r:?}"
            );
        }
        // Handshake waits can serialise (root accepts ranks one at a time,
        // then the peer mesh dials/accepts), but each wait is bounded by
        // the deadline.
        assert!(
            t0.elapsed() < 8 * short,
            "{driver}: handshake with a dead rank took {:?} — the deadline \
             did not bound the bootstrap",
            t0.elapsed()
        );
    }
}

// ---------------------------------------------------------------------------
// Checkpoint/restart: a killed rank is "respawned" (fresh mesh, every rank
// rolled back to the newest globally consistent checkpoint wave) and the
// job completes with final state and fields BIT-IDENTICAL to a run that was
// never interrupted — over both transports.
// ---------------------------------------------------------------------------

#[test]
fn killed_rank_recovers_from_checkpoints_bit_identically() {
    let decomp = Decomposition::new(6, 3);
    let sim = SimArgs::new(2, 1, 1, 0, 30);
    let executors = [
        Executor::Serial,
        Executor::Tasks {
            threads: 2,
            plan: PartitionPlan::fixed(16, 16),
            overlap: false,
        },
    ];
    for (executor, kind) in executors
        .into_iter()
        .flat_map(|e| TRANSPORTS.map(|k| (e, k)))
    {
        let dir =
            std::env::temp_dir().join(format!("resil-recover-{kind:?}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = RunSpec {
            transport: kind,
            deadline: DEADLINE,
            executor,
            ..RunSpec::new(decomp, sim)
        };
        // The uninterrupted reference run.
        let clean = multidom::run(&spec);
        // Kill rank 1 after cycle 17; checkpoints land every 5 cycles, so
        // the newest globally consistent wave is cycle 15.
        let report = multidom::recovery::run_with_recovery(
            &RunSpec {
                faults: FaultPlan {
                    die_at: vec![(1, 17)],
                    ..FaultPlan::NONE
                },
                resil: ResilPlan {
                    ckpt: Some(resil::CkptConfig::new(dir.clone(), 5)),
                    resume_cycle: None,
                },
                ..spec
            },
            3,
        );
        assert_eq!(
            report.attempts, 2,
            "{kind:?}: one death, one successful restart"
        );
        assert_eq!(
            report.resumed_from,
            vec![15],
            "{kind:?}: must roll back to the newest complete wave"
        );
        for (rank, (c, r)) in clean.into_iter().zip(report.results).enumerate() {
            let (cd, cs) = c.unwrap_or_else(|e| panic!("{kind:?} clean rank {rank}: {e}"));
            let (rd, rs) = r.unwrap_or_else(|e| panic!("{kind:?} recovered rank {rank}: {e}"));
            assert_eq!(cs, rs, "{kind:?} rank {rank}: final state must match");
            assert_eq!(
                lulesh::core::validate::max_field_difference(&cd, &rd),
                0.0,
                "{kind:?} rank {rank}: recovered fields must be bit-identical"
            );
            assert_eq!(
                cd.e(0).to_bits(),
                rd.e(0).to_bits(),
                "{kind:?} rank {rank}: origin energy must be bit-identical"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn recovery_without_any_checkpoint_cold_restarts() {
    // Death before the second checkpoint wave exists is survivable too:
    // the restart simply begins from scratch (cycle-0 wave) and still
    // finishes with the right cycle count.
    let decomp = Decomposition::new(6, 2);
    let sim = SimArgs::new(2, 1, 1, 0, 12);
    let dir = std::env::temp_dir().join(format!("resil-coldstart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let report = multidom::recovery::run_with_recovery(
        &RunSpec {
            transport: TransportKind::Channel,
            deadline: DEADLINE,
            faults: FaultPlan {
                die_at: vec![(1, 3)],
                ..FaultPlan::NONE
            },
            resil: ResilPlan {
                ckpt: Some(resil::CkptConfig::new(dir.clone(), 100)),
                resume_cycle: None,
            },
            ..RunSpec::new(decomp, sim)
        },
        3,
    );
    assert_eq!(report.attempts, 2);
    assert_eq!(report.resumed_from, vec![0], "only the cycle-0 wave exists");
    for r in &report.results {
        assert_eq!(r.as_ref().map(|(_, s)| s.cycle).ok(), Some(12));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unrecoverable_job_reports_the_failure_after_max_attempts() {
    // More kills than attempts: the report must surface the Net error
    // honestly instead of pretending the job finished.
    let decomp = Decomposition::new(6, 2);
    let sim = SimArgs::new(2, 1, 1, 0, 40);
    let dir = std::env::temp_dir().join(format!("resil-exhaust-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let report = multidom::recovery::run_with_recovery(
        &RunSpec {
            transport: TransportKind::Channel,
            deadline: DEADLINE,
            faults: FaultPlan {
                die_at: vec![(1, 10), (1, 20)],
                ..FaultPlan::NONE
            },
            resil: ResilPlan {
                ckpt: Some(resil::CkptConfig::new(dir.clone(), 4)),
                resume_cycle: None,
            },
            ..RunSpec::new(decomp, sim)
        },
        2,
    );
    assert_eq!(report.attempts, 2);
    assert!(
        report
            .results
            .iter()
            .any(|r| matches!(r, Err(MdError::Net(_)))),
        "the second kill lands after the attempt budget is spent"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn taskpar_reduce_dt_propagates_errors() {
    // The task driver's reduce_dt hook must be called even on error (a rank
    // returning early would deadlock its peers). Verify via the public API:
    // a poisoned single-rank taskpar run returns Err cleanly.
    let (r,) = (multidom::gather(multidom::run(&RunSpec {
        executor: Executor::Tasks {
            threads: 2,
            plan: PartitionPlan::fixed(16, 16),
            overlap: false,
        },
        ..RunSpec::new(
            multidom::Decomposition::new(6, 1),
            SimArgs::new(2, 1, 1, 0, 5),
        )
    })),);
    // Unpoisoned baseline succeeds...
    assert!(r.is_ok());
    // ... and the run_with_hooks contract surfaces local errors through the
    // reduction callback (counted below).
    use std::sync::atomic::{AtomicUsize, Ordering};
    let calls = AtomicUsize::new(0);
    let d = std::sync::Arc::new(Domain::build(6, 2, 1, 1, 0));
    d.set_v(d.num_elem() / 2, -0.5);
    let runner = TaskLulesh::new(2);
    let result = runner.run_with_hooks(
        &d,
        PartitionPlan::fixed(16, 16),
        5,
        &lulesh::task::IterationHooks::default(),
        |c, h, err| {
            calls.fetch_add(1, Ordering::SeqCst);
            match err {
                Some(e) => Err(e),
                None => Ok((c, h)),
            }
        },
    );
    assert_eq!(result, Err(LuleshError::VolumeError));
    assert_eq!(
        calls.load(Ordering::SeqCst),
        1,
        "reduce_dt must run exactly once, on the erroring iteration"
    );
}
