//! Tiny shared argument helpers for the experiment binaries (no clap — the
//! workspace is dependency-free), plus [`manifest_from_args`], which turns
//! an `exp_*` command line into a validated [`Manifest`] so bad sizes and
//! out-of-range parameters are rejected up front with a structured
//! `cc-dsm/error/v1` JSON error instead of panicking deep inside a sweep.

use crate::manifest::{ExperimentKind, Manifest, ManifestError};

/// The value following `--<flag>`, if present.
#[must_use]
pub fn value_of(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Parses a byte quantity with an optional `k`/`m`/`g` suffix (binary
/// units): `65536`, `64k`, `512m`, `1g`.
pub fn try_parse_bytes(s: &str) -> Result<usize, String> {
    let t = s.trim().to_ascii_lowercase();
    let (digits, mult) = match t.as_bytes().last() {
        Some(b'k') => (&t[..t.len() - 1], 1usize << 10),
        Some(b'm') => (&t[..t.len() - 1], 1 << 20),
        Some(b'g') => (&t[..t.len() - 1], 1 << 30),
        _ => (t.as_str(), 1),
    };
    let n: usize = digits
        .trim()
        .parse()
        .map_err(|_| format!("byte quantity takes e.g. 65536, 64k, 512m, 1g (got {s:?})"))?;
    n.checked_mul(mult)
        .ok_or_else(|| format!("byte quantity {s:?} overflows usize"))
}

/// Parses `--<flag> N` as a non-negative integer of any width; a value
/// that does not parse (or does not fit) is a structured `bad_type` error
/// naming `field`, never a panic.
pub fn int_flag<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    field: &str,
) -> Result<Option<T>, ManifestError> {
    match value_of(args, flag) {
        None => Ok(None),
        Some(v) => v.parse().map(Some).map_err(|_| ManifestError {
            code: "bad_type",
            field: field.into(),
            message: format!("{flag} takes a non-negative integer (got {v:?})"),
        }),
    }
}

/// Builds a validated, normalized [`Manifest`] from an `exp_*` command line.
///
/// Reads `--sizes`, `--seed`, `--threads`, `--polls`, `--waiters`, `--n`,
/// `--cycles`, `--max-polls`, `--mem-budget`, `--deep`, `--audit`,
/// `--algorithm`, `--model`, `--oracle`, `--objective` — every scenario
/// flag; the observability and output flags stay with the binaries. All
/// parse failures and range violations come back as a structured
/// [`ManifestError`] (render it with [`ManifestError::to_json`] and exit 2),
/// so duplicate or out-of-range `--sizes` no longer panic mid-sweep.
pub fn manifest_from_args(
    kind: ExperimentKind,
    args: &[String],
) -> Result<Manifest, ManifestError> {
    let mut m = Manifest::new(kind);
    if let Some(list) = value_of(args, "--sizes") {
        let mut sizes = Vec::new();
        for part in list.split(',') {
            sizes.push(part.trim().parse().map_err(|_| ManifestError {
                code: "bad_type",
                field: "sizes".into(),
                message: format!("--sizes takes e.g. 32,64 (got {part:?})"),
            })?);
        }
        m.sizes = Some(sizes);
    }
    m.threads = int_flag::<u64>(args, "--threads", "threads")?
        .map(|t| u32::try_from(t).unwrap_or(u32::MAX));
    m.seed = int_flag(args, "--seed", "seed")?;
    m.polls = int_flag(args, "--polls", "polls")?;
    m.waiters = int_flag(args, "--waiters", "waiters")?;
    m.n = int_flag(args, "--n", "n")?;
    m.cycles = int_flag(args, "--cycles", "cycles")?;
    m.max_polls = int_flag(args, "--max-polls", "max_polls")?;
    if let Some(v) = value_of(args, "--mem-budget") {
        let bytes = try_parse_bytes(&v).map_err(|message| ManifestError {
            code: "bad_type",
            field: "mem_budget".into(),
            message,
        })?;
        m.mem_budget = Some(bytes as u64);
    }
    m.deep = args.iter().any(|a| a == "--deep");
    m.audit = args.iter().any(|a| a == "--audit");
    m.algorithm = value_of(args, "--algorithm");
    m.model = value_of(args, "--model");
    m.oracle = value_of(args, "--oracle");
    m.objective = value_of(args, "--objective");
    m.normalized()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn manifest_from_args_matches_from_json() {
        let cli = manifest_from_args(
            ExperimentKind::E10,
            &argv("--sizes 8,16 --seed 7 --max-polls 3 --threads 4"),
        )
        .unwrap();
        let json = Manifest::from_json(
            r#"{"schema":"cc-dsm/manifest/v1","kind":"e10","sizes":[8,16],"seed":7,"max_polls":3,"threads":4}"#,
        )
        .unwrap();
        assert_eq!(cli, json);
        assert_eq!(cli.job_id(), json.job_id());
    }

    #[test]
    fn bad_cli_sizes_are_structured_errors_not_panics() {
        let dup = manifest_from_args(ExperimentKind::E2, &argv("--sizes 32,64,32")).unwrap_err();
        assert_eq!(dup.code, "duplicate_size");
        let garbled =
            manifest_from_args(ExperimentKind::E2, &argv("--sizes 32,potato")).unwrap_err();
        assert_eq!(garbled.code, "bad_type");
        let range = manifest_from_args(ExperimentKind::E6, &argv("--sizes 9999")).unwrap_err();
        assert_eq!(range.code, "size_out_of_range");
        let n = manifest_from_args(ExperimentKind::E5, &argv("--n 1")).unwrap_err();
        assert_eq!(n.code, "field_out_of_range");
    }

    #[test]
    fn byte_suffixes() {
        assert_eq!(try_parse_bytes("64k"), Ok(64 << 10));
        assert_eq!(try_parse_bytes("512m"), Ok(512 << 20));
        assert_eq!(try_parse_bytes("1g"), Ok(1 << 30));
        assert_eq!(try_parse_bytes(" 65536 "), Ok(65536));
        assert!(try_parse_bytes("lots").is_err());
    }
}
