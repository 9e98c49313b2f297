//! Lint fixture: op kinds that the one replay, `Catalog::apply`, cannot
//! replay — two variants have no arm, and a `_ =>` wildcard hides the gap
//! from the compiler.

pub enum OpKind {
    Define { name: String },
    Ingest { bytes: u64 },
    Composite { path: Vec<String> },
    Truncate,
}

#[derive(Default)]
pub struct Catalog {
    pub arrays: Vec<String>,
}

impl Catalog {
    pub fn apply(&mut self, txn: &[OpKind]) {
        for op in txn {
            match op {
                OpKind::Define { name } => self.arrays.push(name.clone()),
                OpKind::Ingest { .. } => {}
                _ => {}
            }
        }
    }
}
