//! Workload import/export.
//!
//! Besides the JSON round-trip on [`Workload`], this module
//! reads the minimal CSV schema a site would actually have on hand — one
//! line per job with its declared envelope and coarse shape — and expands it
//! into full segment profiles with the same generator the synthetic
//! workloads use. Columns:
//!
//! ```csv
//! name,mem_mb,threads,duration_secs,duty_cycle,offloads
//! KM-batch-1,900,60,28.5,0.7,8
//! ```
//!
//! `duty_cycle` and `offloads` may be empty; they default to 0.75 and 8.

use crate::builder::Workload;
use crate::ids::JobId;
use crate::job::JobSpec;
use crate::table1::{build_profile, AppKind};
use phishare_sim::{DetRng, SimTime};
use std::fmt;

/// A CSV import failure, with the 1-based line number.
#[derive(Debug, Clone, PartialEq)]
pub struct CsvError {
    /// Line the error occurred on (1-based; line 1 is the header).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "workload CSV, line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for CsvError {}

const HEADER: &str = "name,mem_mb,threads,duration_secs,duty_cycle,offloads";

/// Longest time any input may name, in seconds (about 115 days): a CSV
/// row's job duration, an arrival spec's gaps, period and crowd instant,
/// each arrival time in a workload, every fault and perturbation config time, and each event's time,
/// downtime, duration and latency extra in a loaded fault or perturbation
/// plan file. It keeps every simulated instant a run can reach far below
/// the clock's overflow.
pub const MAX_DURATION_SECS: f64 = 1e7;

/// Most offloads a CSV row may declare; each one becomes two profile
/// segments.
const MAX_OFFLOADS: usize = 10_000;

/// Parse a workload from the CSV schema above. Profiles are generated
/// deterministically from `seed` (jitter within each job's declared shape).
pub fn workload_from_csv(csv: &str, seed: u64) -> Result<Workload, CsvError> {
    let mut lines = csv.lines().enumerate();
    let (_, header) = lines.next().ok_or(CsvError {
        line: 1,
        message: "empty input".into(),
    })?;
    if header.trim().to_ascii_lowercase() != HEADER {
        return Err(CsvError {
            line: 1,
            message: format!("expected header {HEADER:?}, got {header:?}"),
        });
    }

    let mut jobs = Vec::new();
    for (i, line) in lines {
        let line_no = i + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        if fields.len() != 6 {
            return Err(CsvError {
                line: line_no,
                message: format!("expected 6 fields, got {}", fields.len()),
            });
        }
        let err = |message: String| CsvError {
            line: line_no,
            message,
        };
        let name = fields[0].to_string();
        if name.is_empty() {
            return Err(err("empty job name".into()));
        }
        let mem_mb: u64 = fields[1]
            .parse()
            .map_err(|e| err(format!("bad mem_mb {:?}: {e}", fields[1])))?;
        let threads: u32 = fields[2]
            .parse()
            .map_err(|e| err(format!("bad threads {:?}: {e}", fields[2])))?;
        let duration_secs: f64 = fields[3]
            .parse()
            .map_err(|e| err(format!("bad duration_secs {:?}: {e}", fields[3])))?;
        let duty_cycle: f64 = if fields[4].is_empty() {
            0.75
        } else {
            fields[4]
                .parse()
                .map_err(|e| err(format!("bad duty_cycle {:?}: {e}", fields[4])))?
        };
        let offloads: usize = if fields[5].is_empty() {
            8
        } else {
            fields[5]
                .parse()
                .map_err(|e| err(format!("bad offloads {:?}: {e}", fields[5])))?
        };
        if !(0.0..1.0).contains(&duty_cycle) {
            return Err(err(format!("duty_cycle {duty_cycle} outside [0, 1)")));
        }
        if duration_secs <= 0.0 || !duration_secs.is_finite() {
            return Err(err(format!("non-positive duration {duration_secs}")));
        }
        if duration_secs > MAX_DURATION_SECS {
            return Err(err(format!(
                "duration {} s exceeds {MAX_DURATION_SECS} s",
                fields[3]
            )));
        }
        if offloads == 0 {
            return Err(err("a Phi job needs at least one offload".into()));
        }
        if offloads > MAX_OFFLOADS {
            return Err(err(format!("{offloads} offloads exceed {MAX_OFFLOADS}")));
        }

        let id = JobId(jobs.len() as u64);
        let mut rng = DetRng::substream_indexed(seed, "csv-import", id.raw());
        let profile = build_profile(duration_secs, duty_cycle, offloads, threads, &mut rng);
        let spec = JobSpec {
            id,
            name,
            app: AppKind::Synthetic,
            mem_req_mb: mem_mb,
            thread_req: threads,
            actual_peak_mem_mb: mem_mb,
            profile,
        };
        spec.validate()
            .map_err(|e| err(format!("invalid job: {e}")))?;
        jobs.push(spec);
    }

    let arrivals = vec![SimTime::ZERO; jobs.len()];
    Ok(Workload {
        label: format!("csv×{}", jobs.len()),
        jobs,
        arrivals,
        seed,
    })
}

/// Export a workload's declared envelopes in the same CSV schema (profiles
/// collapse to their aggregate duty cycle / offload count).
pub fn workload_to_csv(workload: &Workload) -> String {
    let mut out = String::from(HEADER);
    out.push('\n');
    for job in &workload.jobs {
        out.push_str(&format!(
            "{},{},{},{:.3},{:.3},{}\n",
            job.name,
            job.mem_req_mb,
            job.thread_req,
            job.nominal_duration().as_secs_f64(),
            job.profile.offload_fraction(),
            job.profile.offload_count(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
name,mem_mb,threads,duration_secs,duty_cycle,offloads
KM-1,900,60,28.5,0.7,8
# a comment line

BT-1,1200,240,45,0.8,12
defaults,500,120,20,,";

    #[test]
    fn parses_the_sample() {
        let wl = workload_from_csv(SAMPLE, 1).unwrap();
        assert_eq!(wl.len(), 3);
        wl.validate().unwrap();
        assert_eq!(wl.jobs[0].name, "KM-1");
        assert_eq!(wl.jobs[0].mem_req_mb, 900);
        assert_eq!(wl.jobs[0].thread_req, 60);
        assert!((wl.jobs[0].nominal_duration().as_secs_f64() - 28.5).abs() < 0.01);
        assert!((wl.jobs[0].profile.offload_fraction() - 0.7).abs() < 0.02);
        // Defaults applied.
        assert_eq!(wl.jobs[2].profile.offload_count(), 8);
    }

    #[test]
    fn import_is_deterministic_per_seed() {
        assert_eq!(
            workload_from_csv(SAMPLE, 5).unwrap(),
            workload_from_csv(SAMPLE, 5).unwrap()
        );
        assert_ne!(
            workload_from_csv(SAMPLE, 5).unwrap(),
            workload_from_csv(SAMPLE, 6).unwrap()
        );
    }

    #[test]
    fn csv_round_trip_preserves_envelopes() {
        let wl = workload_from_csv(SAMPLE, 1).unwrap();
        let csv = workload_to_csv(&wl);
        let back = workload_from_csv(&csv, 1).unwrap();
        assert_eq!(back.len(), wl.len());
        for (a, b) in wl.jobs.iter().zip(back.jobs.iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.mem_req_mb, b.mem_req_mb);
            assert_eq!(a.thread_req, b.thread_req);
            assert!(
                (a.nominal_duration().as_secs_f64() - b.nominal_duration().as_secs_f64()).abs()
                    < 0.1
            );
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let bad = "name,mem_mb,threads,duration_secs,duty_cycle,offloads\nx,abc,60,10,0.7,8";
        let e = workload_from_csv(bad, 1).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("mem_mb"));

        let e = workload_from_csv("wrong,header\n", 1).unwrap_err();
        assert_eq!(e.line, 1);

        let e = workload_from_csv(
            "name,mem_mb,threads,duration_secs,duty_cycle,offloads\nx,100,60,10,1.5,8",
            1,
        )
        .unwrap_err();
        assert!(e.message.contains("duty_cycle"));

        let e = workload_from_csv(
            "name,mem_mb,threads,duration_secs,duty_cycle,offloads\nx,100,60,-3,0.5,8",
            1,
        )
        .unwrap_err();
        assert!(e.message.contains("duration"));

        let e = workload_from_csv(
            "name,mem_mb,threads,duration_secs,duty_cycle,offloads\nx,100,60,10,0.5,0",
            1,
        )
        .unwrap_err();
        assert!(e.message.contains("offload"));

        for row in ["x,100,60,1e300,0.5,8", "x,100,60,10,0.5,100000000000"] {
            let csv = format!("{HEADER}\n{row}");
            let e = workload_from_csv(&csv, 1).unwrap_err();
            assert_eq!(e.line, 2, "{row}");
            assert!(e.message.contains("exceed"), "{row}: {e}");
        }
    }

    #[test]
    fn empty_input_fails_cleanly() {
        assert!(workload_from_csv("", 1).is_err());
        // Header only: a valid empty workload.
        let wl = workload_from_csv(HEADER, 1).unwrap();
        assert!(wl.is_empty());
    }
}
