//! The run's output: a run record line, then the result object as the
//! last line of stdout.

/// A value in the run record.
pub trait Note {
    /// The value as JSON.
    fn json(&self) -> String;
}

macro_rules! plain_note {
    ($($t:ty),*) => {$(
        impl Note for $t {
            fn json(&self) -> String {
                self.to_string()
            }
        }
    )*};
}
plain_note!(u64, usize, bool);

impl Note for f64 {
    fn json(&self) -> String {
        if self.is_finite() {
            self.to_string()
        } else {
            "null".to_string()
        }
    }
}

impl Note for Vec<f64> {
    fn json(&self) -> String {
        format!(
            "[{}]",
            self.iter().map(Note::json).collect::<Vec<_>>().join(", ")
        )
    }
}

impl Note for &str {
    fn json(&self) -> String {
        serde_json::to_string(&(*self).to_string()).expect("strings serialize")
    }
}

impl Note for String {
    fn json(&self) -> String {
        self.as_str().json()
    }
}

/// One run's outcome.
pub struct Report {
    /// Every check passed.
    pub correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, f64, String)>,
    record: Vec<(String, String)>,
}

impl Report {
    /// A report over `attempted` operations, `failed` of which failed.
    pub fn new(attempted: usize, failed: usize) -> Report {
        Report {
            correct: true,
            attempted,
            failed,
            metrics: Vec::new(),
            record: Vec::new(),
        }
    }

    /// Add a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Add a run-record entry.
    pub fn note<V: Note>(&mut self, key: &str, value: V) {
        self.record.push((key.to_string(), value.json()));
    }

    /// Print the record and the result; returns whether the run is good.
    pub fn print(&self) -> bool {
        let finite = self.metrics.iter().all(|(_, v, _)| v.is_finite());
        let correct = self.correct && finite && self.attempted > 0;
        let record: Vec<String> = self
            .record
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        println!("{{\"record\": {{{}}}}}", record.join(", "));
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    v.json()
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        correct
    }
}
