//! Grid-computing scenario: NWS-forecast-driven path selection.
//!
//! A Grid application must move result files from UCSB to UIUC and asks
//! the session layer to pick the best path. We (1) probe the direct path
//! and both depot sublinks with small measured transfers, (2) feed the
//! observations into the NWS-style forecaster registry, (3) score the
//! candidate paths of a `RoutePlan` with the fixed-point cascade scorer
//! the recovering session client ranks routes by, and (4) run the actual
//! transfer over the winner — exactly the decision loop §III of the
//! paper sketches.
//!
//! ```text
//! cargo run --release --example grid_transfer
//! ```

use lsl::nws::LinkRegistry;
use lsl::session::{cascade_score_ns, rank_candidates, Hop, LslPath, RoutePlan, SublinkForecast};
use lsl::trace;
use lsl::workloads::{case1, run_transfer, Mode, RunConfig};

fn main() {
    let case = case1();
    println!("Grid transfer with NWS path selection — {}\n", case.name);

    // --- 1. Probe: repeated small measured transfers on each mode ----
    let mut registry = LinkRegistry::new();
    let probe_size = 512u64 << 10;
    for i in 0..5 {
        // Direct probe: trace gives us the end-to-end RTT; wall clock
        // gives bandwidth.
        let direct = run_transfer(
            &case,
            &RunConfig::builder(probe_size, Mode::Direct)
                .seed(500 + i)
                .trace()
                .build(),
        );
        let t = direct.trace_first.as_ref().expect("traced");
        if let Some(rtt) = trace::mean_rtt(t) {
            registry.observe_rtt(case.src.0, case.dst.0, rtt);
        }
        registry.observe_bandwidth(case.src.0, case.dst.0, direct.goodput_bps);

        // Depot probe: per-sublink RTTs from the two captured traces.
        let lsl = run_transfer(
            &case,
            &RunConfig::builder(probe_size, Mode::ViaDepot)
                .seed(500 + i)
                .trace()
                .build(),
        );
        let s1 = lsl.trace_first.as_ref().expect("sublink1");
        let s2 = lsl.trace_second.as_ref().expect("sublink2");
        if let Some(rtt) = trace::mean_rtt(s1) {
            registry.observe_rtt(case.src.0, case.depot.0, rtt);
        }
        if let Some(rtt) = trace::mean_rtt(s2) {
            registry.observe_rtt(case.depot.0, case.dst.0, rtt);
        }
    }

    let f_direct = registry
        .forecast(case.src.0, case.dst.0)
        .expect("direct path probed");
    let f_s1 = registry
        .forecast(case.src.0, case.depot.0)
        .expect("sublink1 probed");
    let f_s2 = registry
        .forecast(case.depot.0, case.dst.0)
        .expect("sublink2 probed");
    println!("NWS forecasts ({:?} confidence):", f_direct.confidence);
    println!(
        "  direct   rtt {:6.1} ms   measured bw {:6.2} Mbit/s",
        f_direct.rtt_s.unwrap() * 1e3,
        f_direct.bandwidth_bps.unwrap() / 1e6
    );
    println!("  sublink1 rtt {:6.1} ms", f_s1.rtt_s.unwrap() * 1e3);
    println!("  sublink2 rtt {:6.1} ms\n", f_s2.rtt_s.unwrap() * 1e3);

    // --- 2. Score the plan's candidates ------------------------------
    // Loss is taken from the calibrated case description; in a live
    // deployment it would come from the TCP extended-statistics MIB.
    let loss = 1.8e-4;
    let bottleneck = 100e6;
    let forecast = |rtt_s: Option<f64>, loss: f64| {
        SublinkForecast::quantize(bottleneck, rtt_s.expect("rtt probed"), loss)
            .expect("finite, in-range forecast")
    };
    let direct_fc = [forecast(f_direct.rtt_s, loss)];
    let depot_fc = [
        forecast(f_s1.rtt_s, loss / 2.0),
        forecast(f_s2.rtt_s, loss / 2.0),
    ];
    let dst = Hop::new(case.dst, 5001);
    let mut plan = RoutePlan::builder()
        .path(LslPath::direct(dst))
        .path(LslPath::via(vec![Hop::new(case.depot, 7001)], dst))
        .build()
        .expect("valid candidate routes");

    let size = 32u64 << 20;
    println!("Ranking paths for a {}MB transfer:", size >> 20);
    for (i, sublinks) in [&direct_fc[..], &depot_fc[..]].into_iter().enumerate() {
        plan.set_score(i, cascade_score_ns(sublinks, size));
    }
    let scores: Vec<Option<u64>> = plan.candidates().iter().map(|c| c.score).collect();
    let ranked = rank_candidates(&scores);
    let predicted = |i: usize| {
        let t = scores[i].expect("every candidate scored") as f64 / 1e9;
        (t, size as f64 * 8.0 / t)
    };
    for (rank, &i) in ranked.iter().enumerate() {
        let (t, bps) = predicted(i);
        println!(
            "  #{} {} sublinks — predicted {:.2} Mbit/s ({:.2}s)",
            rank + 1,
            plan.candidates()[i].path.num_sublinks(),
            bps / 1e6,
            t
        );
    }
    let winner = &plan.candidates()[ranked[0]].path;
    let mode = if winner.num_sublinks() == 1 {
        Mode::Direct
    } else {
        Mode::ViaDepot
    };

    // --- 3. Run the chosen path ---------------------------------------
    let result = run_transfer(&case, &RunConfig::builder(size, mode).seed(999).build());
    println!(
        "\nChosen: {} sublinks → measured {:.2} Mbit/s in {:.2}s (predicted {:.2} Mbit/s)",
        winner.num_sublinks(),
        result.goodput_bps / 1e6,
        result.duration_s,
        predicted(ranked[0]).1 / 1e6
    );
    if let Some(ok) = result.digest_ok {
        println!("End-to-end MD5 digest verified: {ok}");
    }
}
