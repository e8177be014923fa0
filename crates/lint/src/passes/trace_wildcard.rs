//! `trace-event-wildcard`: a `match` that destructures [`TraceEvent`] variants
//! must not end in a `_ =>` arm. The trace schema changes (the service's
//! scheduler added `WorkerExecute`); a wildcard means a new variant is silently
//! dropped from reports instead of being a compile error at every consumer.

use crate::diag::Diagnostic;
use crate::source::SourceFile;
use crate::Pass;

/// See module docs.
pub struct TraceWildcard;

impl Pass for TraceWildcard {
    fn name(&self) -> &'static str {
        "trace-event-wildcard"
    }

    fn check_file(&mut self, file: &SourceFile) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        let mut k = 0usize;
        while k < file.code.len() {
            if file.code_is(k, "match") {
                if let Some((open, close)) = match_body(file, k) {
                    if mentions_trace_event(file, open, close) {
                        flag_wildcard_arms(file, open, close, &mut diags);
                    }
                    k = open; // still scan nested matches inside this body
                }
            }
            k += 1;
        }
        diags
    }
}

/// Given `match` at code index `k`, find its body braces: the first `{` at
/// parenthesis/bracket depth 0 after the scrutinee.
fn match_body(file: &SourceFile, k: usize) -> Option<(usize, usize)> {
    let mut depth = 0i32;
    for j in k + 1..file.code.len() {
        if file.code_is_punct(j, '(') || file.code_is_punct(j, '[') {
            depth += 1;
        } else if file.code_is_punct(j, ')') || file.code_is_punct(j, ']') {
            depth -= 1;
        } else if depth == 0 && file.code_is_punct(j, '{') {
            return Some((j, file.matching_brace(j)));
        } else if depth == 0 && file.code_is_punct(j, ';') {
            return None;
        }
    }
    None
}

/// Does the body pattern-match `TraceEvent` variants (`TraceEvent ::` inside)?
fn mentions_trace_event(file: &SourceFile, open: usize, close: usize) -> bool {
    (open + 1..close).any(|j| {
        file.code_is(j, "TraceEvent")
            && file.code_is_punct(j + 1, ':')
            && file.code_is_punct(j + 2, ':')
    })
}

/// Flag `_ =>` arms at the body's own nesting level (depth 1 relative to the
/// body `{`), skipping test regions.
fn flag_wildcard_arms(file: &SourceFile, open: usize, close: usize, diags: &mut Vec<Diagnostic>) {
    let mut depth = 0i32;
    for j in open..close {
        if file.code_is_punct(j, '{') || file.code_is_punct(j, '(') || file.code_is_punct(j, '[') {
            depth += 1;
        } else if file.code_is_punct(j, '}')
            || file.code_is_punct(j, ')')
            || file.code_is_punct(j, ']')
        {
            depth -= 1;
        } else if depth == 1
            && file.code_tok(j) == "_"
            && file.code_is_punct(j + 1, '=')
            && file.code_is_punct(j + 2, '>')
            && !file.code_in_test(j)
        {
            diags.push(
                file.diag_at_code(
                    "trace-event-wildcard",
                    j,
                    "wildcard arm in a TraceEvent match — list every variant so new \
                 events are a compile error here, not dropped data"
                        .to_string(),
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn run(src: &str) -> Vec<Diagnostic> {
        let file = SourceFile::parse("t.rs", src.to_string());
        TraceWildcard.check_file(&file)
    }

    #[test]
    fn flags_wildcard_in_trace_event_match() {
        let diags = run("fn f(e: TraceEvent) {\n\
                 match e {\n\
                     TraceEvent::RoundStart { round, .. } => go(round),\n\
                     _ => {}\n\
                 }\n\
             }\n");
        assert_eq!(diags.len(), 1, "{diags:?}");
    }

    #[test]
    fn exhaustive_trace_event_match_is_clean() {
        let diags = run("fn f(e: TraceEvent) {\n\
                 match e {\n\
                     TraceEvent::RoundStart { .. } => a(),\n\
                     TraceEvent::RoundEnd { .. } => b(),\n\
                 }\n\
             }\n");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unrelated_matches_may_use_wildcards() {
        let diags = run("fn f(x: u32) -> u32 { match x { 0 => 1, _ => 2 } }\n");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn nested_match_wildcards_are_not_confused() {
        // The inner match on a field is not a TraceEvent match; its wildcard is
        // fine. The outer match is exhaustive.
        let diags = run("fn f(e: TraceEvent) {\n\
                 match e {\n\
                     TraceEvent::PhaseTime { ns, .. } => match ns { 0 => a(), _ => b() },\n\
                     TraceEvent::RoundEnd { .. } => c(),\n\
                 }\n\
             }\n");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn if_let_style_underscore_binding_is_not_an_arm() {
        let diags = run("fn f(e: TraceEvent) {\n\
                 match e {\n\
                     TraceEvent::RoundStart { round: _ } => a(),\n\
                     TraceEvent::RoundEnd { .. } => b(),\n\
                 }\n\
             }\n");
        assert!(diags.is_empty(), "{diags:?}");
    }
}
