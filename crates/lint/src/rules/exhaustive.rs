//! **E1** — schema exhaustiveness: every hand-written surface of a closed
//! enum schema must name every variant and none may hide behind a
//! wildcard arm; a hand-written parser must read back every wire name.
//!
//! This is what makes a wire format a *closed* schema: adding a variant
//! without teaching a surface fails CI with a `file:line` diagnostic
//! instead of silently dropping the variant from a log, a dashboard or a
//! fold. `EventKind` needs only its aggregator checked here: its schema
//! table generates the wire names, the replay-stable filter and the JSONL
//! codec, so the compiler checks those.

use crate::lexer::TokKind;
use crate::scan::{self, SourceFile};
use crate::{E1Config, Finding, RuleId};
use std::collections::BTreeSet;

pub fn check(cfg: &E1Config, files: &[SourceFile], findings: &mut Vec<Finding>) {
    let Some(enum_file) = files.iter().find(|f| f.rel == cfg.enum_file) else {
        findings.push(config_error(
            cfg,
            format!("enum file {} not found", cfg.enum_file),
        ));
        return;
    };
    let Some(variants) = scan::enum_variants(enum_file.tokens(), cfg.enum_name) else {
        findings.push(config_error(
            cfg,
            format!("enum {} not found in {}", cfg.enum_name, cfg.enum_file),
        ));
        return;
    };
    if variants.is_empty() {
        findings.push(config_error(
            cfg,
            format!("enum {} has no variants", cfg.enum_name),
        ));
        return;
    }

    // Variant-coverage surfaces: each must name every variant (as
    // `Enum::V`) and contain no `_ =>` wildcard arm.
    for &(label, file, fn_name) in &cfg.surfaces {
        match files.iter().find(|f| f.rel == file) {
            Some(file) => check_surface(cfg, file, fn_name, label, &variants, findings),
            None => findings.push(config_error(cfg, format!("{label} file {file} not found"))),
        }
    }

    // Parser coverage is by wire name: every string the name map yields
    // must appear as a string literal inside the parse fn.
    if let Some(parser) = cfg.parser {
        check_parser(cfg, parser, enum_file, files, &variants, findings);
    }
}

fn check_surface(
    cfg: &E1Config,
    file: &SourceFile,
    fn_name: &str,
    label: &str,
    variants: &[String],
    findings: &mut Vec<Finding>,
) {
    let tokens = file.tokens();
    let Some((fn_kw, open, close)) = scan::fn_span(tokens, fn_name) else {
        findings.push(missing_fn(file, label, fn_name));
        return;
    };
    let at = &tokens[fn_kw];
    let body = &tokens[open..=close];

    // Which variants does the body name as `Enum::Variant`?
    let mut covered = BTreeSet::new();
    for i in 0..body.len() {
        if scan::is_ident(&body[i], cfg.enum_name) {
            if let Some(end) = scan::path_at(body, i, &[cfg.enum_name]) {
                if body.get(end).is_some_and(|t| scan::is_punct(t, ':'))
                    && body.get(end + 1).is_some_and(|t| scan::is_punct(t, ':'))
                {
                    if let Some(v) = body.get(end + 2).and_then(scan::ident_name) {
                        covered.insert(v.to_string());
                    }
                }
            }
        }
    }
    for v in variants {
        if !covered.contains(v) {
            findings.push(Finding {
                file: file.rel.clone(),
                line: at.line,
                col: at.col,
                rule: RuleId::E1,
                message: format!(
                    "{label} `fn {fn_name}` does not cover `{}::{v}`",
                    cfg.enum_name
                ),
                hint: format!("add an explicit `{}::{v}` arm — no wildcard", cfg.enum_name),
            });
        }
    }

    // `_ =>` hides future variants from this surface.
    for i in 0..body.len() {
        if scan::is_ident(&body[i], "_")
            && body.get(i + 1).is_some_and(|t| scan::is_punct(t, '='))
            && body.get(i + 2).is_some_and(|t| scan::is_punct(t, '>'))
        {
            findings.push(Finding {
                file: file.rel.clone(),
                line: body[i].line,
                col: body[i].col,
                rule: RuleId::E1,
                message: format!("wildcard `_ =>` arm in {label} `fn {fn_name}`"),
                hint: "enumerate the remaining variants explicitly so new events cannot \
                       silently skip this surface"
                    .into(),
            });
        }
    }
}

fn check_parser(
    cfg: &E1Config,
    (name_fn, file, parse_fn): (&str, &str, &str),
    enum_file: &SourceFile,
    files: &[SourceFile],
    variants: &[String],
    findings: &mut Vec<Finding>,
) {
    let Some(parser_file) = files.iter().find(|f| f.rel == file) else {
        findings.push(config_error(
            cfg,
            format!("JSONL parser file {file} not found"),
        ));
        return;
    };
    let Some((_, open, close)) = scan::fn_span(enum_file.tokens(), name_fn) else {
        findings.push(missing_fn(enum_file, "wire-name map", name_fn));
        return;
    };
    let wire_names: Vec<&str> = enum_file.tokens()[open..=close]
        .iter()
        .filter_map(|t| match &t.kind {
            TokKind::Str(s) => Some(s.as_str()),
            _ => None,
        })
        .collect();
    if wire_names.len() != variants.len() {
        findings.push(Finding {
            file: enum_file.rel.clone(),
            line: enum_file.tokens()[open].line,
            col: enum_file.tokens()[open].col,
            rule: RuleId::E1,
            message: format!(
                "wire-name map `fn {name_fn}` yields {} names for {} variants",
                wire_names.len(),
                variants.len()
            ),
            hint: "one wire name per variant, no sharing".into(),
        });
    }
    let Some((fn_kw, popen, pclose)) = scan::fn_span(parser_file.tokens(), parse_fn) else {
        findings.push(missing_fn(parser_file, "JSONL parser", parse_fn));
        return;
    };
    let parsed: BTreeSet<&str> = parser_file.tokens()[popen..=pclose]
        .iter()
        .filter_map(|t| match &t.kind {
            TokKind::Str(s) => Some(s.as_str()),
            _ => None,
        })
        .collect();
    let at = &parser_file.tokens()[fn_kw];
    for name in wire_names {
        if !parsed.contains(name) {
            findings.push(Finding {
                file: parser_file.rel.clone(),
                line: at.line,
                col: at.col,
                rule: RuleId::E1,
                message: format!("JSONL parser `fn {parse_fn}` does not handle wire name {name:?}"),
                hint: "add the match arm so parse→serialize stays byte-identical".into(),
            });
        }
    }
}

/// A surface or parser fn is missing. One wording for every caller, so a
/// wire-name map that is both a surface and the parser's name source is
/// reported once (findings are deduplicated).
fn missing_fn(file: &SourceFile, label: &str, fn_name: &str) -> Finding {
    Finding {
        file: file.rel.clone(),
        line: 1,
        col: 1,
        rule: RuleId::E1,
        message: format!("{label} `fn {fn_name}` not found"),
        hint: format!("the schema requires `{fn_name}` to exist and stay exhaustive"),
    }
}

fn config_error(cfg: &E1Config, message: String) -> Finding {
    Finding {
        file: cfg.enum_file.to_string(),
        line: 1,
        col: 1,
        rule: RuleId::E1,
        message,
        hint: "fix the E1 configuration or restore the schema surface".into(),
    }
}
