//! Output checks on `/explain` response bodies.
//!
//! A 200 body passes when it parses as JSON, its `count` and its
//! `results` both equal the number of rows sent, and every `cf` is a
//! row of finite numbers exactly as wide as the model's encoding. The
//! byte-identity check for repeated bodies lives with the load generator,
//! which remembers the first answer per body.

use cfx_obs::json::{self, Value};

/// What a body that passed every check says about its rows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BodySummary {
    /// Rows answered.
    pub rows: usize,
    /// Rows whose counterfactual flips the black box.
    pub valid: usize,
    /// Rows whose counterfactual satisfies every active constraint.
    pub feasible: usize,
}

/// Checks one 200 `/explain` body against the request that produced it.
pub fn check_body(body: &[u8], rows_sent: usize, width: usize) -> Result<BodySummary, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8")?;
    let doc = json::parse(text).map_err(|e| format!("bad JSON: {e}"))?;
    let count = doc.get("count").and_then(Value::as_u64);
    if count != Some(rows_sent as u64) {
        return Err(format!("count {count:?}, sent {rows_sent} rows"));
    }
    let Some(Value::Arr(results)) = doc.get("results") else {
        return Err("missing results array".into());
    };
    if results.len() != rows_sent {
        return Err(format!("{} results for {rows_sent} rows", results.len()));
    }
    let mut summary = BodySummary {
        rows: rows_sent,
        ..Default::default()
    };
    for (i, r) in results.iter().enumerate() {
        let Some(Value::Arr(cf)) = r.get("cf") else {
            return Err(format!("results[{i}] has no cf array"));
        };
        if cf.len() != width {
            return Err(format!(
                "results[{i}].cf has {} values, width {width}",
                cf.len()
            ));
        }
        if !cf.iter().all(|v| v.as_f64().is_some_and(f64::is_finite)) {
            return Err(format!("results[{i}].cf has a non-finite value"));
        }
        let flag = |key: &str| match r.get(key) {
            Some(Value::Bool(b)) => Ok(*b),
            _ => Err(format!("results[{i}] has no boolean {key}")),
        };
        summary.valid += flag("valid")? as usize;
        summary.feasible += flag("feasible")? as usize;
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{"model_version":0,"model_source":"boot","count":2,"results":[{"cf":[0.5,1],"input_class":0,"desired_class":1,"cf_class":1,"valid":true,"feasible":true,"provenance":"first_shot"},{"cf":[0,0.25],"input_class":0,"desired_class":1,"cf_class":0,"valid":false,"feasible":true,"provenance":"fallback"}]}"#;

    #[test]
    fn well_formed_body_passes_and_is_tallied() {
        let s = check_body(GOOD.as_bytes(), 2, 2).expect("good body");
        assert_eq!(
            s,
            BodySummary {
                rows: 2,
                valid: 1,
                feasible: 2
            }
        );
    }

    #[test]
    fn every_corruption_is_caught() {
        let cases = [
            GOOD.replace("\"count\":2", "\"count\":3"),
            GOOD.replace("[0.5,1]", "[0.5,null]"),
            GOOD.replace("[0.5,1]", "[0.5]"),
            GOOD.replace("\"valid\":true", "\"valid\":1"),
            GOOD[..GOOD.len() - 3].to_string(),
        ];
        for bad in &cases {
            assert!(check_body(bad.as_bytes(), 2, 2).is_err(), "{bad}");
        }
        assert!(check_body(GOOD.as_bytes(), 1, 2).is_err(), "row count");
        assert!(check_body(GOOD.as_bytes(), 2, 3).is_err(), "width");
    }
}
