//! Answer validation: every `ok` answer is checked against the problem
//! the benchmark generated, outside any timing.

use aa_cli::{build_problem, ProblemFile};
use aa_core::{superopt, Assignment, Problem};

/// A generated problem, built, with its super-optimal (SO) bound.
pub struct Expected {
    /// The live problem.
    pub problem: Problem,
    /// SO utility: an upper bound on any feasible answer.
    pub bound: f64,
}

impl Expected {
    /// Build `file` and compute its bound.
    pub fn new(file: &ProblemFile) -> Expected {
        let problem = build_problem(file).expect("generated problems are valid");
        let bound = superopt::super_optimal(&problem).utility;
        Expected { problem, bound }
    }
}

/// What an `ok` answer reported, once it passed every check.
#[derive(Debug, Clone, Copy)]
pub struct Checked {
    /// Reported utility ÷ the SO bound.
    pub quality: f64,
    /// The server's own `latency_ms`.
    pub server_ms: f64,
}

/// Outcome of one response line.
#[derive(Debug)]
pub enum Verdict {
    /// `status: ok` and every check passed.
    Ok(Checked),
    /// Any other status (shed, error) — a failure, not a wrong answer.
    NotOk(String),
    /// `status: ok` but the answer is wrong.
    Invalid(String),
}

/// Check one response line against its problem: the assignment has one
/// entry per thread and fits every server (within `aa_core::EPS`), the
/// reported utility equals a recomputation, and it does not exceed the
/// SO bound.
pub fn check(line: &str, expected: &Expected) -> Verdict {
    let v: serde_json::Value = match serde_json::from_str(line) {
        Ok(v) => v,
        Err(e) => return Verdict::Invalid(format!("unparseable response: {e}")),
    };
    if v["status"] != "ok" {
        let class = v["class"].as_str().or(v["status"].as_str()).unwrap_or("?");
        return Verdict::NotOk(class.to_string());
    }
    let p = &expected.problem;
    let server: Option<Vec<usize>> = v["server"]
        .as_array()
        .and_then(|a| a.iter().map(|x| x.as_u64().map(|s| s as usize)).collect());
    let amount: Option<Vec<f64>> = v["allocation"]
        .as_array()
        .and_then(|a| a.iter().map(|x| x.as_f64()).collect());
    let (Some(server), Some(amount)) = (server, amount) else {
        return Verdict::Invalid("server/allocation missing or malformed".into());
    };
    if server.len() != p.len() || amount.len() != p.len() {
        return Verdict::Invalid(format!(
            "{} servers and {} allocations for {} threads",
            server.len(),
            amount.len(),
            p.len()
        ));
    }
    let assignment = Assignment { server, amount };
    if let Err(e) = assignment.validate(p) {
        return Verdict::Invalid(format!("infeasible: {e:?}"));
    }
    let (Some(reported), Some(server_ms)) = (v["utility"].as_f64(), v["latency_ms"].as_f64())
    else {
        return Verdict::Invalid("utility or latency_ms missing".into());
    };
    let recomputed = assignment.total_utility(p);
    if (reported - recomputed).abs() > 1e-9 * recomputed.abs().max(1.0) {
        return Verdict::Invalid(format!(
            "utility {reported} but the answer is worth {recomputed}"
        ));
    }
    if reported > expected.bound * (1.0 + 1e-9) + 1e-9 {
        return Verdict::Invalid(format!(
            "utility {reported} exceeds the SO bound {}",
            expected.bound
        ));
    }
    Verdict::Ok(Checked {
        quality: reported / expected.bound,
        server_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aa_utility::UtilitySpec;

    fn expected() -> Expected {
        let power = UtilitySpec::Power {
            scale: 1.0,
            beta: 0.5,
            cap: 10.0,
        };
        Expected::new(&ProblemFile {
            servers: 2,
            capacity: 10.0,
            threads: vec![power.clone(), power],
        })
    }

    fn ok_line(server: &str, alloc: &str, utility: f64) -> String {
        format!(
            r#"{{"status":"ok","id":1,"tier":"algo2","degraded":false,"utility":{utility},"server":{server},"allocation":{alloc},"latency_ms":0.5}}"#
        )
    }

    #[test]
    fn a_correct_answer_passes() {
        let u = 2.0 * 10f64.sqrt();
        match check(&ok_line("[0,1]", "[10.0,10.0]", u), &expected()) {
            Verdict::Ok(c) => assert!((c.quality - 1.0).abs() < 1e-9 && c.server_ms == 0.5),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn wrong_answers_are_invalid() {
        let e = expected();
        let u = 2.0 * 10f64.sqrt();
        for line in [
            ok_line("[0]", "[10.0]", u),
            ok_line("[0,0]", "[10.0,10.0]", u),
            ok_line("[0,1]", "[10.0,10.0]", u + 0.5),
            ok_line("[0,1]", "[10.0,10.0]", u).replace(",\"latency_ms\":0.5", ""),
        ] {
            assert!(matches!(check(&line, &e), Verdict::Invalid(_)), "{line}");
        }
        assert!(matches!(
            check(r#"{"status":"overloaded","id":1}"#, &e),
            Verdict::NotOk(_)
        ));
    }
}
