//! Shared helpers for the example binaries.

use pv_workloads::WorkloadId;

/// Parses a workload name, case-insensitively. An unknown name is an error
/// that lists every valid one.
pub fn parse_workload(name: &str) -> Result<WorkloadId, String> {
    WorkloadId::all()
        .into_iter()
        .find(|w| w.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            let valid: Vec<&str> = WorkloadId::all().iter().map(|w| w.name()).collect();
            format!(
                "unknown workload '{name}' (expected one of: {})",
                valid.join(", ")
            )
        })
}

/// The workload named by command-line argument `index`, or `default` when
/// the argument is absent. An unknown name prints the valid names and
/// exits with status 2.
pub fn workload_arg(index: usize, default: WorkloadId) -> WorkloadId {
    let Some(name) = std::env::args().nth(index) else {
        return default;
    };
    parse_workload(&name).unwrap_or_else(|err| {
        eprintln!("{err}");
        std::process::exit(2);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_parse_case_insensitively() {
        for id in WorkloadId::all() {
            assert_eq!(parse_workload(&id.name().to_lowercase()), Ok(id));
        }
    }
}
