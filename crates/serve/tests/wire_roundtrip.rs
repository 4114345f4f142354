//! Property tests for the wire format: every frame type round-trips
//! bitwise, and corrupt / truncated / oversized input decodes to a typed
//! [`WireError`] — never a panic, never a bogus frame.

use mffv_mesh::workload::BoundarySpec;
use mffv_mesh::{
    CellIndex, Dims, DtPolicy, PermeabilityModel, TransientSpec, Well, WellSet, WorkloadSpec,
};
use mffv_serve::frame::{fnv1a32, Frame, WireShutdownMode, MAX_FRAME_LEN, WIRE_VERSION};
use mffv_serve::wire::{BackendSel, WireError, WireJobSpec, WirePolicy};
use mffv_solver::backend::{PreconditionerKind, SolveConfig};
use mffv_solver::monitor::{SolveEvent, StopReason};
use proptest::{prop_assert, proptest, ProptestConfig};

/// A job spec whose every field is driven off the RNG draws, exercising all
/// enum arms over the run.
fn arbitrary_job(pick: u64, a: f64, b: u64) -> WireJobSpec {
    let backend = BackendSel::all()[(pick % 5) as usize];
    let permeability = match pick % 4 {
        0 => PermeabilityModel::Homogeneous { value: a },
        1 => PermeabilityModel::Layered {
            layer_values: vec![a, a * 2.0, a * 3.0],
        },
        2 => PermeabilityModel::LogNormal {
            mean_log: -30.0 + a,
            std_log: a.abs(),
            seed: b,
        },
        _ => PermeabilityModel::Channelized {
            background: a,
            channel: a * 10.0,
            num_channels: (b % 5) as usize,
            half_width: 1.5,
            amplitude: a,
            seed: b,
        },
    };
    let boundary = match pick % 3 {
        0 => BoundarySpec::SourceProducer {
            source_pressure: a * 1e7,
            producer_pressure: a * 1e6,
        },
        1 => BoundarySpec::XFaces {
            left_pressure: a * 1e7,
            right_pressure: a * 1e6,
        },
        _ => BoundarySpec::None,
    };
    let workload = WorkloadSpec {
        name: format!("w{pick}"),
        dims: Dims::new(4 + (b % 8) as usize, 4, 2),
        boundary,
        permeability,
        tolerance: a.abs().max(1e-12),
        ..WorkloadSpec::quickstart()
    };
    let transient = (pick.is_multiple_of(2)).then(|| {
        let well = if b.is_multiple_of(2) {
            Well::rate("inj", CellIndex::new(1, 1, 0), a)
        } else {
            Well {
                name: "prod".to_string(),
                cell: CellIndex::new(2, 2, 1),
                control: mffv_mesh::WellControl::Bhp {
                    pressure: a * 1e6,
                    productivity_index: 1e-9,
                },
                start_time: 0.0,
                end_time: f64::INFINITY,
            }
        };
        let dt = if pick.is_multiple_of(4) {
            DtPolicy::Ramp {
                initial: 0.5,
                growth: 1.5,
                max: a.abs() + 1.0,
            }
        } else {
            DtPolicy::Fixed { dt: a.abs() + 0.1 }
        };
        let mut spec = TransientSpec::new(30.0, 1.0, 1e-9).with_wells(WellSet::new(vec![well]));
        spec.dt = dt;
        spec.snapshot_times = vec![a.abs(), a.abs() * 2.0];
        spec.warm_start = b.is_multiple_of(2);
        spec
    });
    WireJobSpec {
        workload,
        backend,
        config: SolveConfig {
            tolerance: (pick.is_multiple_of(2)).then_some(a.abs()),
            max_iterations: (b.is_multiple_of(2)).then_some((b % 10_000) as usize),
            threads: (pick.is_multiple_of(3)).then_some(1 + (b % 8) as usize),
            preconditioner: PreconditionerKind::ALL[(pick % 3) as usize],
        },
        seed: (b % 2 == 1).then_some(b),
        policy: WirePolicy {
            iteration_budget: (pick.is_multiple_of(2)).then_some((b % 5_000) as usize),
            deadline_seconds: (pick.is_multiple_of(3)).then_some(a.abs()),
            stagnation: (pick.is_multiple_of(5)).then_some((1 + (b % 50) as usize, 1e-3)),
            divergence_factor: (b.is_multiple_of(3)).then_some(a.abs() * 1e6),
        },
        transient,
    }
}

/// One representative of every frame tag, fields driven off the draws.
/// `rr_bits` feeds `f64::from_bits`, so events cover NaN, infinities,
/// subnormals and negative zero — the bitwise contract, not just values.
fn arbitrary_frames(pick: u64, job_id: u64, rr_bits: u64, a: f64) -> Vec<Frame> {
    let event = match pick % 4 {
        0 => SolveEvent::Started {
            initial_rr: f64::from_bits(rr_bits),
        },
        1 => SolveEvent::Iteration {
            k: (job_id % 100_000) as usize,
            rr: f64::from_bits(rr_bits),
        },
        2 => SolveEvent::Converged {
            iterations: (job_id % 100_000) as usize,
            rr: f64::from_bits(rr_bits),
        },
        _ => SolveEvent::Stopped(arbitrary_reason(pick)),
    };
    vec![
        Frame::Hello {
            client: format!("client-{job_id}"),
        },
        Frame::Welcome {
            session: job_id,
            banner: "mffv-serve".to_string(),
        },
        Frame::Submit {
            job_id,
            spec: Box::new(arbitrary_job(pick, a, rr_bits)),
        },
        Frame::Accepted { job_id },
        Frame::Busy {
            job_id,
            depth: (pick % 64) as usize,
            capacity: 64,
        },
        Frame::Rejected {
            job_id,
            reason: format!("reason {pick}"),
        },
        Frame::Cancel { job_id },
        Frame::Event {
            job_id,
            seq: pick,
            event,
        },
        Frame::Stopped {
            job_id,
            reason: arbitrary_reason(job_id),
            report: None,
        },
        Frame::JobFailed {
            job_id,
            error: format!("error {pick}"),
        },
        Frame::Ping { token: rr_bits },
        Frame::Pong { token: rr_bits },
        Frame::Shutdown {
            mode: if pick.is_multiple_of(2) {
                WireShutdownMode::Drain
            } else {
                WireShutdownMode::Abort
            },
        },
        Frame::ShuttingDown,
        Frame::Goodbye,
    ]
}

fn arbitrary_reason(pick: u64) -> StopReason {
    [
        StopReason::Cancelled,
        StopReason::DeadlineExpired,
        StopReason::IterationBudget,
        StopReason::Stagnated,
        StopReason::Diverged,
        StopReason::MonitorRequest,
        StopReason::Breakdown,
    ][(pick % 7) as usize]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every frame type round-trips byte-stably: encode ∘ decode ∘ encode
    /// is the identity on wire bytes (which implies bitwise field fidelity
    /// without needing PartialEq on reports).
    #[test]
    fn every_frame_type_roundtrips_bitwise(
        pick in 0u64..1_000_000,
        job_id in 0u64..u64::MAX,
        rr_bits in 0u64..u64::MAX,
        a in -1.0e3f64..1.0e3,
    ) {
        for frame in arbitrary_frames(pick, job_id, rr_bits, a) {
            let bytes = frame.to_wire_bytes();
            let decoded = Frame::from_wire_bytes(&bytes)
                .unwrap_or_else(|e| panic!("{} failed to decode: {e}", frame.name()));
            prop_assert!(decoded.tag() == frame.tag(), "tag changed for {}", frame.name());
            prop_assert!(
                decoded.to_wire_bytes() == bytes,
                "{} is not byte-stable",
                frame.name()
            );
        }
    }

    /// Flipping any single byte of a frame makes it fail to decode with a
    /// typed error — the checksum (or the structural validation it guards)
    /// catches every one-byte corruption.
    #[test]
    fn single_byte_corruption_is_always_rejected(
        pick in 0u64..1_000_000,
        job_id in 0u64..u64::MAX,
        rr_bits in 0u64..u64::MAX,
        a in -1.0e3f64..1.0e3,
        flip_seed in 0usize..1_000_000,
        flip_bit in 0u8..8,
    ) {
        for frame in arbitrary_frames(pick, job_id, rr_bits, a) {
            let bytes = frame.to_wire_bytes();
            let mut corrupt = bytes.clone();
            let index = flip_seed % corrupt.len();
            corrupt[index] ^= 1 << flip_bit;
            let result = Frame::from_wire_bytes(&corrupt);
            prop_assert!(
                result.is_err(),
                "{}: flipping byte {index} bit {flip_bit} went undetected",
                frame.name()
            );
        }
    }

    /// Every strict prefix of a frame is a typed truncation error.
    #[test]
    fn truncated_frames_are_typed_errors(
        pick in 0u64..1_000_000,
        job_id in 0u64..u64::MAX,
        rr_bits in 0u64..u64::MAX,
        a in -1.0e3f64..1.0e3,
        cut_seed in 0usize..1_000_000,
    ) {
        for frame in arbitrary_frames(pick, job_id, rr_bits, a) {
            let bytes = frame.to_wire_bytes();
            let cut = cut_seed % bytes.len(); // strict prefix, 0..len
            let result = Frame::from_wire_bytes(&bytes[..cut]);
            prop_assert!(
                matches!(result, Err(WireError::Truncated { .. })),
                "{} truncated to {cut} bytes decoded to {result:?}",
                frame.name()
            );
        }
    }

    /// A length prefix beyond MAX_FRAME_LEN is rejected before any
    /// allocation, whatever follows it.
    #[test]
    fn oversized_length_prefixes_are_rejected(extra in 1u64..u32::MAX as u64) {
        let len = (MAX_FRAME_LEN as u64 + extra).min(u32::MAX as u64) as u32;
        let mut bytes = len.to_be_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 16]);
        let result = Frame::from_wire_bytes(&bytes);
        prop_assert!(
            matches!(result, Err(WireError::Oversized { .. })),
            "length {len} accepted: {result:?}"
        );
    }

    /// Arbitrary byte soup never panics the decoder (and, since a random
    /// 32-bit checksum match is astronomically unlikely, never yields a
    /// frame).
    #[test]
    fn random_bytes_never_panic_the_decoder(
        seed in 0u64..u64::MAX,
        len in 0usize..256,
    ) {
        let mut state = seed | 1;
        let bytes: Vec<u8> = (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state & 0xFF) as u8
            })
            .collect();
        let _ = Frame::from_wire_bytes(&bytes); // must return, not panic
    }
}

#[test]
fn version_byte_gates_everything_after_it() {
    let bytes = Frame::Goodbye.to_wire_bytes();
    // Rewrite the version byte and fix up the checksum so only the version
    // check can object.
    let mut future = bytes.clone();
    future[4] = WIRE_VERSION + 1;
    let content_end = future.len() - 4;
    let checksum = fnv1a32(&future[4..content_end]);
    future[content_end..].copy_from_slice(&checksum.to_be_bytes());
    match Frame::from_wire_bytes(&future) {
        Err(WireError::BadVersion { got, expected }) => {
            assert_eq!(got, WIRE_VERSION + 1);
            assert_eq!(expected, WIRE_VERSION);
        }
        other => panic!("expected BadVersion, got {other:?}"),
    }
}

#[test]
fn trailing_bytes_after_a_frame_are_rejected() {
    let mut bytes = Frame::Goodbye.to_wire_bytes();
    bytes.push(0);
    assert!(matches!(
        Frame::from_wire_bytes(&bytes),
        Err(WireError::TrailingBytes { .. })
    ));
}
