//! The option table covers every `CompileOptions` field: each one moves
//! the wire encoding (and so the daemon's cache key) and survives the
//! trip CLI argv → spec → wire → decode → argv.

use rlim_benchmarks::Benchmark;
use rlim_cli::{parse_report_spec, report_argv};
use rlim_compiler::CompileOptions;
use rlim_daemon::cache_key;
use rlim_daemon::wire::{decode_spec, encode_spec};
use rlim_service::options::{self, OPTIONS};
use rlim_service::JobSpec;

/// Each field of `o` by its table key, rendered for comparison. The
/// destructure has no `..`, so a new field does not compile until it is
/// named here, and then fails the key check until it has a table row.
fn fields(o: CompileOptions) -> [(&'static str, String); 10] {
    let CompileOptions {
        rewriting,
        effort,
        selection,
        allocation,
        max_writes,
        peephole,
        copy_reuse,
        esat,
        esat_nodes,
        esat_iters,
    } = o;
    [
        ("rewriting", format!("{rewriting:?}")),
        ("effort", format!("{effort:?}")),
        ("selection", format!("{selection:?}")),
        ("allocation", format!("{allocation:?}")),
        ("max_writes", format!("{max_writes:?}")),
        ("peephole", format!("{peephole:?}")),
        ("copy_reuse", format!("{copy_reuse:?}")),
        ("esat", format!("{esat:?}")),
        ("esat_nodes", format!("{esat_nodes:?}")),
        ("esat_iters", format!("{esat_iters:?}")),
    ]
}

/// One `(before, after)` pair per field that changes that field alone.
/// The technique triple moves between neighbouring presets, which differ
/// in exactly one of its fields, so both sides keep a command-line form.
fn single_field_edits() -> Vec<(CompileOptions, CompileOptions)> {
    let d = CompileOptions::default();
    vec![
        (
            CompileOptions::min_write(),
            CompileOptions::endurance_rewriting(),
        ),
        (d, d.with_effort(2)),
        (
            CompileOptions::endurance_rewriting(),
            CompileOptions::endurance_aware(),
        ),
        (CompileOptions::plim_compiler(), CompileOptions::min_write()),
        (d, d.with_max_writes(20)),
        (d, d.with_peephole(true)),
        (d, d.with_copy_reuse(true)),
        (d, d.with_esat(true)),
        (d, d.with_esat_nodes(2000)),
        (d, d.with_esat_iters(2)),
    ]
}

fn changed_fields(a: CompileOptions, b: CompileOptions) -> Vec<&'static str> {
    let (a, b) = (fields(a), fields(b));
    a.iter()
        .zip(&b)
        .filter(|(x, y)| x.1 != y.1)
        .map(|(x, _)| x.0)
        .collect()
}

#[test]
fn every_field_has_a_row_in_field_order() {
    let keys: Vec<&str> = OPTIONS.iter().map(|row| row.key).collect();
    let names: Vec<&str> = fields(CompileOptions::default())
        .iter()
        .map(|(name, _)| *name)
        .collect();
    assert_eq!(keys, names);
}

#[test]
fn every_field_moves_the_wire_and_round_trips_through_argv() {
    let edits = single_field_edits();
    for (row, (before, after)) in OPTIONS.iter().zip(edits) {
        assert_eq!(
            changed_fields(before, after),
            [row.key],
            "edit of {}",
            row.key
        );
        assert_ne!(
            options::to_json(&before),
            options::to_json(&after),
            "{} does not reach the wire encoding",
            row.key
        );

        let spec = JobSpec::benchmark(Benchmark::Ctrl).with_options(after);
        let argv = report_argv(&spec).expect("a command-line form");
        let parsed = parse_report_spec(&argv[1..]).expect("own argv parses");
        let decoded = decode_spec(&encode_spec(&parsed).unwrap()).unwrap();
        assert_eq!(decoded.options(), &after, "{} through {argv:?}", row.key);
        assert_eq!(report_argv(&decoded).unwrap(), argv, "{}", row.key);
        let before = spec.clone().with_options(before);
        assert_ne!(cache_key(7, &before).unwrap(), cache_key(7, &spec).unwrap());
        assert_ne!(
            report_argv(&before).unwrap(),
            argv,
            "{} misses the argv",
            row.key
        );
    }
}
