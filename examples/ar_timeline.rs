//! The paper's Figure 8: a timeline of the time-sensitive AR application
//! under RF-harvested power — fresh windows processed, expired windows
//! discarded, alerts raised only while timely.
//!
//! ```sh
//! cargo run --example ar_timeline
//! ```

use tics_repro::apps::workload::ar_trace;
use tics_repro::apps::{ar, build_app, App, SystemUnderTest};
use tics_repro::clock::CapacitorRtc;
use tics_repro::core::{TicsConfig, TicsRuntime};
use tics_repro::energy::{Capacitor, CapacitorSupply, RfHarvester};
use tics_repro::minic::opt::OptLevel;
use tics_repro::vm::{Executor, Machine, MachineConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let windows = 40;
    let (trace, _) = ar_trace(windows * 3, ar::WINDOW, 4, 2026);
    let program = build_app(
        App::Ar,
        SystemUnderTest::Tics,
        OptLevel::O2,
        tics_repro::apps::build::Scale(windows),
    )?;
    let mut machine = Machine::with_clock(
        program.clone(),
        MachineConfig {
            sensor_trace: trace.into(),
            ..MachineConfig::default()
        },
        Box::new(CapacitorRtc::new(60_000_000)), // persistent timekeeper
    )?;
    let mut tics = TicsRuntime::new(TicsConfig::s2_star().fitted_to(&program));

    // Powercast-style RF link: 3 W EIRP at 2 m, 10 uF storage, deep fading.
    let mut supply = CapacitorSupply::new(
        RfHarvester::new(3.0, 2.0, 0.85, 99),
        Capacitor::new(10e-6, 3.3, 2.4, 1.8),
        3e-3,
    );
    let outcome = Executor::new().with_time_budget(2_000_000_000).run(
        &mut machine,
        &mut tics,
        &mut supply,
    )?;

    // Merge the event streams into one wall-clock timeline.
    let stats = machine.stats();
    let mut events: Vec<(u64, String)> = Vec::new();
    for &(id, t) in &stats.marks_timed {
        let label = match id {
            x if x == ar::MARK_WINDOW => "window sampled".to_string(),
            x if x == ar::MARK_CLASSIFY => "window classified".to_string(),
            x if x == ar::MARK_ALERT => ">>> TIMELY ALERT".to_string(),
            x if x == ar::MARK_ALERT_MISS => "alert skipped (deadline passed)".to_string(),
            x if x == ar::MARK_DISCARD => "window DISCARDED (expired)".to_string(),
            _ => continue,
        };
        events.push((t, label));
    }
    for &t in &stats.failure_times {
        events.push((t, "*** POWER FAILURE".to_string()));
    }
    events.sort();

    println!("AR timeline on RF-harvested power (first 60 events):");
    for (t, label) in events.iter().take(60) {
        println!("{:>10.3} ms  {label}", *t as f64 / 1e3);
    }
    println!("...");
    println!(
        "\nsummary: {} windows sampled, {} classified, {} discarded stale, \
         {} alerts, {} alert deadline misses, {} power failures",
        stats.mark_count(ar::MARK_WINDOW),
        stats.mark_count(ar::MARK_CLASSIFY),
        stats.mark_count(ar::MARK_DISCARD) + stats.expired_data_discards,
        stats.mark_count(ar::MARK_ALERT),
        stats.mark_count(ar::MARK_ALERT_MISS),
        stats.power_failures,
    );
    println!("outcome: {outcome:?}");
    Ok(())
}
