//! GTC-P stencil recovery: the paper's flagship workload (Figure 2) run
//! under fault injection with CARE protection.
//!
//! Samples injection points from a Pin-style execution profile until one
//! produces a SIGSEGV, then shows Safeguard's recovery and verifies the
//! final physics output is bit-identical to the golden run.
//!
//! ```sh
//! cargo run --release --example gtcp_stencil_recovery
//! ```

use care::prelude::*;
use faultsim::{Campaign, CampaignConfig, Outcome, Signal};

fn main() {
    let workload = workloads::gtcp::default();
    println!(
        "GTC-P: {} functions, {} memory-access instructions",
        workload.module.funcs.len(),
        workload.module.mem_access_count()
    );

    for level in [OptLevel::O0, OptLevel::O1] {
        let app = care::compile(&workload.module, level);
        println!(
            "\n[{level}] {} recovery kernels, avg {:.1} IR instructions each",
            app.armor.stats.num_kernels,
            app.armor.stats.avg_kernel_instrs()
        );
        let campaign = Campaign::prepare(&workload, app, vec![]);
        let cfg = CampaignConfig {
            injections: 400,
            evaluate_care: true,
            app_only: true,
            seed: 0x61C9,
            ..CampaignConfig::default()
        };

        // Walk injections until we see both a recovered and (if any) an
        // unrecovered SIGSEGV, reporting what happened.
        let mut shown_covered = false;
        let mut shown_declined = false;
        let mut segv = 0usize;
        let mut covered = 0usize;
        for i in 0..cfg.injections {
            let Some(rec) = campaign.run_one(&cfg, i) else { continue };
            if rec.outcome != Outcome::SoftFailure(Signal::Segv) {
                continue;
            }
            segv += 1;
            let Some(care_res) = rec.care else { continue };
            if care_res.covered {
                covered += 1;
                if !shown_covered {
                    shown_covered = true;
                    println!(
                        "  recovered injection #{i}: {:?} after {} dynamic instructions of latency, \
                         {} Safeguard activation(s), {:.1} ms modelled",
                        rec.target,
                        rec.latency.unwrap_or(0),
                        care_res.recoveries,
                        care_res.recovery_ms
                    );
                }
            } else if !shown_declined {
                shown_declined = true;
                println!(
                    "  declined injection #{i}: {:?} -> {} (contaminated kernel input)",
                    rec.target,
                    care_res.decline.map(|d| d.to_string()).unwrap_or_else(|| "?".into())
                );
            }
        }
        println!(
            "  coverage: {covered}/{segv} SIGSEGV faults recovered ({:.1}%)",
            100.0 * covered as f64 / segv.max(1) as f64
        );
        // `covered` means repaired *and* bit-identical to the golden output.
        assert!(covered > 0, "[{level}] no SIGSEGV fault was recovered bit-clean");
    }
}
