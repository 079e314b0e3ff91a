//! Command-line arguments: `--workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`.

/// The traffic mixes the benchmark knows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Batch job: compile and cold-analyze all ten corpus crates per round.
    ColdCorpus,
    /// One in-process server, one client cycling `results` over drivers.
    ResultsHeavy,
    /// A router over two replicas: closed-loop reads beside open-loop edits.
    EditRouted,
}

impl Workload {
    /// Every workload. `BENCHMARK.json` lists the first two; `edit-routed`
    /// is run by hand (see the README for why).
    pub const ALL: [Workload; 3] = [
        Workload::ColdCorpus,
        Workload::ResultsHeavy,
        Workload::EditRouted,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdCorpus => "cold-corpus",
            Workload::ResultsHeavy => "results-heavy",
            Workload::EditRouted => "edit-routed",
        }
    }
}

/// One parsed invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Which traffic mix to run.
    pub workload: Workload,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: u64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// Parses a seed as plain decimal: `10` is ten, and `0x10`, `-1` or an empty
/// string are errors rather than silently reinterpreted.
pub fn parse_seed(text: &str) -> Result<u64, String> {
    if text.is_empty() || !text.bytes().all(|b| b.is_ascii_digit()) {
        return Err(format!("--seed must be a decimal integer, got {text:?}"));
    }
    text.parse::<u64>()
        .map_err(|e| format!("--seed {text:?} is out of range: {e}"))
}

/// Parses the flags after the program name. Every flag is required.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let found = Workload::ALL.into_iter().find(|w| w.name() == value);
                workload = Some(found.ok_or_else(|| format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(parse_seed(&value)?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("--seconds must be a whole number, got {value:?}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn seeds_are_decimal_only() {
        assert_eq!(parse_seed("10"), Ok(10));
        assert_eq!(parse_seed("0"), Ok(0));
        assert_eq!(parse_seed("18446744073709551615"), Ok(u64::MAX));
        for bad in ["", "0x10", "-1", "+3", "1e3", "ten", "18446744073709551616"] {
            assert!(parse_seed(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn full_command_line_parses() {
        let args = parse(argv(
            "--workload edit-routed --seed 10 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            args,
            Args {
                workload: Workload::EditRouted,
                seed: 10,
                seconds: 12,
                trace: true,
            }
        );
    }

    #[test]
    fn missing_or_unknown_flags_are_errors() {
        assert!(parse(argv("--workload cold-corpus --seed 1 --seconds 5")).is_err());
        assert!(parse(argv("--workload nope --seed 1 --seconds 5 --trace 0")).is_err());
        assert!(parse(argv(
            "--workload cold-corpus --seed 1 --seconds 0 --trace 0"
        ))
        .is_err());
        assert!(parse(argv(
            "--workload cold-corpus --seed 1 --seconds 5 --trace 2"
        ))
        .is_err());
        assert!(parse(argv("--bogus 1")).is_err());
    }
}
