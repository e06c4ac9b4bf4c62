//! Pins what the simulator decides, bit for bit, on the shape of the
//! benchmark's `sim_sweep`: a change to the bookkeeping around the admission
//! test (tables, hashing, allocation) must leave every row as it is, and a
//! change that means to move one says so by editing it.

use rtcm_core::strategy::ServiceConfig;
use rtcm_core::time::Duration;
use rtcm_sim::{simulate, SimConfig};
use rtcm_workload::{ArrivalConfig, ArrivalTrace, Phasing, RandomWorkload};

/// Per configuration: `ratio` bits, `jobs_completed`, `ac.tested`,
/// `ac.admitted`, `ac.rejected`, `ir_reports`, `end` in ns — recorded at
/// commit ff18d19 (PR 20).
const DIGESTS: [(&str, [u64; 7]); 15] = [
    ("T_N_N", [4597761830649279102, 747, 2336, 287, 2049, 0, 60019535780]),
    ("T_N_T", [4598577882615883510, 842, 2336, 282, 2054, 0, 60019500179]),
    ("T_N_J", [4598585982553210744, 830, 2336, 270, 2066, 0, 60020207097]),
    ("T_T_N", [4597863040496359072, 823, 2336, 363, 1973, 426, 60019562479]),
    ("T_T_T", [4599472342166665962, 1413, 2336, 853, 1483, 1257, 60165785754]),
    ("T_T_J", [4599763975339093916, 1477, 2336, 917, 1419, 1394, 60165794771]),
    ("J_N_N", [4594722483090205297, 724, 2896, 724, 2172, 0, 60020512828]),
    ("J_N_T", [4597947155474359585, 821, 2896, 821, 2075, 0, 60020510879]),
    ("J_N_J", [4595558996409168031, 848, 2896, 848, 2048, 0, 60020548660]),
    ("J_T_N", [4598159194421900208, 943, 2896, 943, 1953, 673, 60199922613]),
    ("J_T_T", [4599551079616183885, 1429, 2896, 1429, 1467, 1304, 60165774132]),
    ("J_T_J", [4602130654797455888, 1912, 2896, 1912, 984, 2173, 60280857606]),
    ("J_J_N", [4602931641792910423, 2014, 2896, 2014, 882, 2620, 60319716432]),
    ("J_J_T", [4603308204648346355, 2104, 2896, 2104, 792, 2769, 60362685289]),
    ("J_J_J", [4603876262645054661, 2287, 2896, 2287, 609, 3010, 60217230611]),
];

#[test]
fn sweep_shape_decisions_are_pinned_per_configuration() {
    let tasks = RandomWorkload {
        periodic_tasks: 20,
        aperiodic_tasks: 44,
        processors: 8,
        ..RandomWorkload::default()
    }
    .generate(0)
    .expect("the sweep shape generates");
    let arrivals = ArrivalConfig {
        horizon: Duration::from_secs(60),
        poisson_factor: 0.5,
        phasing: Phasing::Simultaneous,
    };
    let trace = ArrivalTrace::generate(&tasks, &arrivals, 7);
    assert!(trace.len() > 2_000, "a trace of {} arrivals pins little", trace.len());

    let seen: Vec<(String, [u64; 7])> = ServiceConfig::all_valid()
        .into_iter()
        .map(|services| {
            let r = simulate(&tasks, &trace, &SimConfig::new(services)).expect("valid config");
            assert_eq!(r.deadline_misses, 0, "{}", services.label());
            let digest = [
                r.ratio.ratio().to_bits(),
                r.jobs_completed,
                r.ac.tested,
                r.ac.admitted,
                r.ac.rejected,
                r.ir_reports,
                r.end.as_nanos(),
            ];
            (services.label(), digest)
        })
        .collect();
    let pinned: Vec<_> =
        DIGESTS.iter().map(|&(label, digest)| (label.to_owned(), digest)).collect();
    assert_eq!(seen, pinned);
}
