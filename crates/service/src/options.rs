//! The compile-option table: one row per [`CompileOptions`] field.
//!
//! Every surface that names an option reads it from here: the daemon's
//! wire `options` object, the report's `policy` block, the CLI's flags
//! and its policy echo. A row's setter is the one validation of its
//! field. The wire decoder feeds it the decoded value; the CLI feeds it
//! `Json::UInt(n)` for a number flag and `Json::Bool(true)` for a
//! switch, so both reject the same values with the same text.
//!
//! Adding an option means one field and builder on [`CompileOptions`],
//! one row here and its line in the CLI's usage text.

use std::fmt::Display;
use std::str::FromStr;

use rlim_compiler::CompileOptions;

use crate::json::{self, Fields, Json};

/// How an option is spelled on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// A switch that turns the option on (`Json::Bool(true)`).
    Switch(&'static str),
    /// A flag followed by an unsigned number (`Json::UInt(n)`).
    Number(&'static str),
}

impl Flag {
    /// The flag as typed, e.g. `--max-writes`.
    pub fn name(self) -> &'static str {
        match self {
            Flag::Switch(name) | Flag::Number(name) => name,
        }
    }
}

/// One compile option.
#[derive(Debug)]
pub struct OptionRow {
    /// The key in the wire's `options` object and the report's `policy`
    /// block.
    pub key: &'static str,
    /// The CLI flag; `None` for the technique triple (rewriting,
    /// selection, allocation) that `--policy` sets.
    pub flag: Option<Flag>,
    /// The option's value.
    pub get: fn(&CompileOptions) -> Json,
    /// The options with this one set from a value, or the reason the
    /// value is out of range, naming it by the given path.
    pub set: fn(CompileOptions, &Json, &dyn Display) -> Result<CompileOptions, String>,
}

/// Every compile option, in wire order.
pub static OPTIONS: [OptionRow; 10] = [
    OptionRow {
        key: "rewriting",
        flag: None,
        get: |o| Json::from(o.rewriting.map(|a| a.name())),
        set: |o, v, path| {
            let rewriting = nullable(v, |v| parsed(v, path))?;
            Ok(CompileOptions { rewriting, ..o })
        },
    },
    OptionRow {
        key: "effort",
        flag: Some(Flag::Number("--effort")),
        get: |o| Json::from(o.effort),
        set: |o, v, path| Ok(o.with_effort(json::as_usize(v, path)?)),
    },
    OptionRow {
        key: "selection",
        flag: None,
        get: |o| Json::from(o.selection.name()),
        set: |o, v, path| {
            Ok(CompileOptions {
                selection: parsed(v, path)?,
                ..o
            })
        },
    },
    OptionRow {
        key: "allocation",
        flag: None,
        get: |o| Json::from(o.allocation.name()),
        set: |o, v, path| {
            Ok(CompileOptions {
                allocation: parsed(v, path)?,
                ..o
            })
        },
    },
    OptionRow {
        key: "max_writes",
        flag: Some(Flag::Number("--max-writes")),
        get: |o| Json::from(o.max_writes),
        set: |o, v, path| {
            let max_writes = nullable(v, |v| match json::as_u64(v, path)? {
                w if w >= 3 => Ok(w),
                _ => Err(format!("{path} must be at least 3")),
            })?;
            Ok(CompileOptions { max_writes, ..o })
        },
    },
    OptionRow {
        key: "peephole",
        flag: Some(Flag::Switch("--peephole")),
        get: |o| Json::from(o.peephole),
        set: |o, v, path| Ok(o.with_peephole(json::as_bool(v, path)?)),
    },
    OptionRow {
        key: "copy_reuse",
        flag: Some(Flag::Switch("--copy-reuse")),
        get: |o| Json::from(o.copy_reuse),
        set: |o, v, path| Ok(o.with_copy_reuse(json::as_bool(v, path)?)),
    },
    OptionRow {
        key: "esat",
        flag: Some(Flag::Switch("--esat")),
        get: |o| Json::from(o.esat),
        set: |o, v, path| Ok(o.with_esat(json::as_bool(v, path)?)),
    },
    OptionRow {
        key: "esat_nodes",
        flag: Some(Flag::Number("--esat-nodes")),
        get: |o| Json::from(u64::from(o.esat_nodes)),
        set: |o, v, path| Ok(o.with_esat_nodes(positive_u32(v, path)?)),
    },
    OptionRow {
        key: "esat_iters",
        flag: Some(Flag::Number("--esat-iters")),
        get: |o| Json::from(u64::from(o.esat_iters)),
        set: |o, v, path| Ok(o.with_esat_iters(positive_u32(v, path)?)),
    },
];

/// `value` through `convert`, with `null` as `None`.
fn nullable<T>(
    value: &Json,
    convert: impl FnOnce(&Json) -> Result<T, String>,
) -> Result<Option<T>, String> {
    match value {
        Json::Null => Ok(None),
        value => convert(value).map(Some),
    }
}

/// `value` as a string naming a `T`.
fn parsed<T: FromStr<Err = String>>(value: &Json, path: &dyn Display) -> Result<T, String> {
    json::as_str(value, path)?.parse()
}

/// `value` as a saturation budget: a positive 32-bit count.
fn positive_u32(value: &Json, path: &dyn Display) -> Result<u32, String> {
    match u32::try_from(json::as_u64(value, path)?) {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("{path} must be a positive 32-bit value")),
    }
}

/// The wire's `options` object: every row, in order.
pub fn to_json(options: &CompileOptions) -> Json {
    // Every value before any key, the allocation order of a literal
    // `Json::object` list: the serve benchmark's set-up time was
    // measured to move with the heap layout the order leaves.
    let values = OPTIONS.each_ref().map(|row| (row.get)(options));
    Json::object(OPTIONS.iter().map(|row| row.key).zip(values))
}

/// The report's `policy` block: the preset name, then the rows
/// `--policy` sets, then the flag rows.
pub fn policy_json(options: &CompileOptions) -> Json {
    let mut rows = OPTIONS.each_ref();
    rows.sort_by_key(|row| row.flag.is_some());
    let preset = Json::from(options.preset_name());
    let values = rows.map(|row| (row.get)(options));
    let entries = rows.map(|row| row.key).into_iter().zip(values);
    Json::object(std::iter::once(("preset", preset)).chain(entries))
}

/// Decodes an `options` object, or a report's `policy` block, which
/// carries the `extra` keys too; any other key is an error.
pub fn decode(fields: &Fields<'_>, extra: &[&str]) -> Result<CompileOptions, String> {
    fields.expect_keys(&[&OPTIONS.each_ref().map(|row| row.key)[..], extra].concat())?;
    let mut options = CompileOptions::default();
    for row in &OPTIONS {
        let path = format_args!("{}.{}", fields.name(), row.key);
        options = (row.set)(options, fields.field(row.key)?, &path)?;
    }
    Ok(options)
}

/// The flag spelled `flag` on the command line, and its row.
pub fn by_flag(flag: &str) -> Option<(Flag, &'static OptionRow)> {
    OPTIONS
        .iter()
        .find_map(|row| Some((row.flag.filter(|f| f.name() == flag)?, row)))
}

/// The flag rows on which `options` differs from its preset (from the
/// default preset when it matches none), each with its value, in table
/// order: the command-line spelling of `options` after `--policy`.
pub fn off_preset(options: &CompileOptions) -> impl Iterator<Item = (Flag, Json)> + '_ {
    let preset = options
        .preset_name()
        .and_then(CompileOptions::preset)
        .unwrap_or_default();
    OPTIONS.iter().filter_map(move |row| {
        let value = (row.get)(options);
        (value != (row.get)(&preset)).then_some((row.flag?, value))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setters_hold_the_bounds() {
        let set = |flag: &str, value: Json| {
            let (_, row) = by_flag(flag).expect("a table flag");
            (row.set)(CompileOptions::default(), &value, &flag)
        };
        assert_eq!(
            set("--max-writes", Json::UInt(2)),
            Err("--max-writes must be at least 3".to_string())
        );
        assert_eq!(
            set("--max-writes", Json::UInt(3)).unwrap().max_writes,
            Some(3)
        );
        for flag in ["--esat-nodes", "--esat-iters"] {
            for bad in [0, u64::from(u32::MAX) + 1] {
                let err = set(flag, Json::UInt(bad)).unwrap_err();
                assert_eq!(err, format!("{flag} must be a positive 32-bit value"));
            }
        }
        assert!(set("--peephole", Json::UInt(1)).is_err());
        assert!(by_flag("--policy").is_none());
    }
}
