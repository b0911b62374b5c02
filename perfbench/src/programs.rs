//! The generated programs: the five stencil families, seeded naming, the
//! cell rule, and the independent references every output is checked
//! against.

use std::cmp::Ordering;
use std::path::{Path, PathBuf};

use fsc_core::{CompileOptions, Compiler, Execution, Target};
use fsc_workloads::{gauss_seidel, jit_kernels, pw_advection};

/// Absolute tolerance against the clarity-first references (the same bound
/// the repository's end-to-end tests use).
const REFERENCE_TOL: f64 = 1e-12;

/// FIR references of programs this large are kept on disk (see
/// [`RefCache`]); smaller ones take milliseconds and are recomputed.
const CACHED_CELLS: u64 = 100_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    Gs,
    Pw,
    Sqrt,
    Varcoef,
    Minmax,
}

impl Family {
    pub const ALL: [Family; 5] = [
        Family::Gs,
        Family::Pw,
        Family::Sqrt,
        Family::Varcoef,
        Family::Minmax,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Family::Gs => "gs",
            Family::Pw => "pw",
            Family::Sqrt => "sqrt",
            Family::Varcoef => "varcoef",
            Family::Minmax => "minmax",
        }
    }

    /// The arrays whose final contents are checked.
    pub fn outputs(self) -> &'static [&'static str] {
        match self {
            Family::Pw => &["su", "sv", "sw"],
            _ => &["u"],
        }
    }

    /// Bytes one cell moves per time step under the compulsory-traffic
    /// model: every array the step's nests read or write, once, 8 bytes
    /// each. The double-buffered families count the compute nest
    /// (`u` in, `un` out) and the copy nest (`un` in, `u` out).
    pub fn bytes_per_cell(self) -> u64 {
        match self {
            Family::Gs | Family::Sqrt | Family::Minmax => 4 * 8,
            Family::Varcoef => 5 * 8,
            Family::Pw => 6 * 8,
        }
    }
}

/// One generated program.
#[derive(Clone, Debug)]
pub struct Program {
    pub family: Family,
    pub n: usize,
    pub steps: usize,
    pub source: String,
}

impl Program {
    /// The family's source at interior size `n` with `steps` time steps.
    /// A non-empty `tag` renames the program unit, which makes the source
    /// distinct without changing what it computes.
    pub fn new(family: Family, n: usize, steps: usize, tag: &str) -> Program {
        let source = match family {
            Family::Gs => gauss_seidel::fortran_source(n, steps),
            Family::Pw if steps == 1 => pw_advection::fortran_source(n),
            Family::Pw => pw_advection::fortran_source_repeated(n, steps),
            Family::Sqrt => jit_kernels::sqrt_source(n, steps),
            Family::Varcoef => jit_kernels::varcoef_source(n, steps),
            Family::Minmax => jit_kernels::minmax_source(n, steps),
        };
        let source = if tag.is_empty() {
            source
        } else {
            rename_program(&source, tag)
        };
        Program {
            family,
            n,
            steps,
            source,
        }
    }

    /// Cells under the benchmark's one cell rule: interior points times
    /// time steps of the compute nest (see README.md).
    pub fn cells(&self) -> u64 {
        (self.n as u64).pow(3) * self.steps as u64
    }

    /// Bytes moved under the compulsory-traffic model.
    pub fn computed_bytes(&self) -> u64 {
        self.cells() * self.family.bytes_per_cell()
    }

    pub fn label(&self) -> String {
        format!("{} {}^3 x{}", self.family.name(), self.n, self.steps)
    }
}

fn rename_program(source: &str, tag: &str) -> String {
    let name = source
        .lines()
        .find_map(|l| l.strip_prefix("program "))
        .expect("every family source opens a program unit")
        .trim()
        .to_string();
    source.replace(
        &format!("program {name}\n"),
        &format!("program {name}_{tag}\n"),
    )
}

/// What a program's outputs must equal.
pub enum Expected {
    /// Within [`REFERENCE_TOL`] of the `fsc_workloads` reference, per
    /// output array.
    Near(Vec<Vec<f64>>),
    /// Bit-identical to an execution the program under test did not
    /// produce (FIR interpretation or single-rank serial), per output.
    Exact(Vec<Vec<f64>>),
}

/// The independent reference: `fsc_workloads` references for GS and PW,
/// the FIR interpreter (`Target::FlangOnly`) for the other families.
pub fn reference(p: &Program, cache: &RefCache) -> Result<Expected, String> {
    match p.family {
        Family::Gs => Ok(Expected::Near(vec![
            gauss_seidel::reference(p.n, p.steps).data,
        ])),
        Family::Pw => {
            let (u, v, w) = pw_advection::initial_fields(p.n);
            let (su, sv, sw) = pw_advection::reference(&u, &v, &w);
            Ok(Expected::Near(vec![su.data, sv.data, sw.data]))
        }
        _ => {
            let cached = p.cells() >= CACHED_CELLS;
            if let Some(outputs) = cached.then(|| cache.load(p)).flatten() {
                return Ok(Expected::Exact(outputs));
            }
            let exec = Compiler::run(&p.source, &CompileOptions::for_target(Target::FlangOnly))
                .map_err(|e| format!("{}: FIR reference failed: {}", p.label(), e.message))?;
            let outputs = outputs_of(p, &exec)?;
            if cached {
                cache.store(p, &outputs);
            }
            Ok(Expected::Exact(outputs))
        }
    }
}

/// FIR-interpreter references take tens of seconds at `run-steady` sizes,
/// so they are kept on disk, keyed by the program source and by the
/// benchmark binary itself: a rebuilt binary computes them afresh.
pub struct RefCache {
    dir: PathBuf,
    /// Digest of the running executable; `None` disables the cache.
    binary: Option<String>,
}

impl RefCache {
    pub fn new(dir: &Path) -> RefCache {
        let binary = std::env::current_exe()
            .and_then(std::fs::read)
            .ok()
            .map(|bytes| fnv(fnv_seed(), &bytes));
        RefCache {
            dir: dir.to_path_buf(),
            binary: binary.map(|h| format!("{h:016x}")),
        }
    }

    fn path(&self, p: &Program) -> Option<PathBuf> {
        let binary = self.binary.as_ref()?;
        let key = fnv(fnv(fnv_seed(), binary.as_bytes()), p.source.as_bytes());
        Some(self.dir.join(format!("ref-{key:016x}.bin")))
    }

    fn load(&self, p: &Program) -> Option<Vec<Vec<f64>>> {
        let bytes = std::fs::read(self.path(p)?).ok()?;
        let mut words = bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        let mut outputs = Vec::new();
        for _ in p.family.outputs() {
            let len = usize::try_from(words.next()?).ok()?;
            let array: Vec<f64> = words.by_ref().take(len).map(f64::from_bits).collect();
            if array.len() != len {
                return None;
            }
            outputs.push(array);
        }
        words.next().is_none().then_some(outputs)
    }

    /// Best effort: a reference that cannot be stored is computed again.
    fn store(&self, p: &Program, outputs: &[Vec<f64>]) {
        let Some(path) = self.path(p) else { return };
        let mut bytes = Vec::new();
        for array in outputs {
            bytes.extend_from_slice(&(array.len() as u64).to_le_bytes());
            for v in array {
                bytes.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        let tmp = path.with_extension(format!("tmp{}", std::process::id()));
        if std::fs::write(&tmp, &bytes).is_ok() {
            let _ = std::fs::rename(&tmp, &path);
        }
        let _ = std::fs::remove_file(&tmp);
    }
}

/// Copies of a program's output arrays from an execution.
pub fn outputs_of(p: &Program, exec: &Execution) -> Result<Vec<Vec<f64>>, String> {
    p.family
        .outputs()
        .iter()
        .map(|name| {
            exec.array(name)
                .map(<[f64]>::to_vec)
                .ok_or_else(|| format!("{}: no array '{name}'", p.label()))
        })
        .collect()
}

/// Compare a program's outputs, fetched by name, with what is expected.
pub fn check<'a>(
    p: &Program,
    expected: &Expected,
    get: impl Fn(&str) -> Option<&'a [f64]>,
) -> Result<(), String> {
    let (want, exact) = match expected {
        Expected::Near(w) => (w, false),
        Expected::Exact(w) => (w, true),
    };
    for (name, want) in p.family.outputs().iter().zip(want) {
        let got = get(name).ok_or_else(|| format!("{}: missing array '{name}'", p.label()))?;
        if got.len() != want.len() {
            return Err(format!(
                "{}: '{name}' has {} elements, expected {}",
                p.label(),
                got.len(),
                want.len()
            ));
        }
        let bad = got.iter().zip(want).position(|(g, w)| {
            if exact {
                g.to_bits() != w.to_bits()
            } else {
                // NaN compares as neither, so it counts as a mismatch.
                !matches!(
                    (g - w).abs().partial_cmp(&REFERENCE_TOL),
                    Some(Ordering::Less | Ordering::Equal)
                )
            }
        });
        if let Some(i) = bad {
            return Err(format!(
                "{}: '{name}'[{i}] = {} but the reference has {}",
                p.label(),
                got[i],
                want[i]
            ));
        }
    }
    Ok(())
}

fn fnv_seed() -> u64 {
    0xcbf2_9ce4_8422_2325
}

/// FNV-1a 64 over `bytes`, continuing from `h`.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of a program set, in order.
pub fn digest<'a>(sources: impl IntoIterator<Item = &'a str>) -> String {
    let h = sources
        .into_iter()
        .fold(fnv_seed(), |h, s| fnv(fnv(h, s.as_bytes()), &[0]));
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renaming_keeps_the_program_and_changes_the_source() {
        let plain = Program::new(Family::Gs, 4, 1, "");
        let tagged = Program::new(Family::Gs, 4, 1, "ab12");
        assert!(tagged.source.contains("program gauss_seidel_ab12\n"));
        assert!(tagged.source.contains("end program gauss_seidel_ab12\n"));
        assert_eq!(
            plain.source.replace("gauss_seidel", ""),
            tagged.source.replace("gauss_seidel_ab12", "")
        );
    }

    #[test]
    fn one_cell_rule_counts_pw_once_per_point() {
        assert_eq!(Program::new(Family::Pw, 8, 1, "").cells(), 512);
        assert_eq!(Program::new(Family::Gs, 8, 3, "").cells(), 1536);
    }
}
