//! The manifest's execution-frequency language.
//!
//! A manifest cannot ship Rust code, so per-kernel execution counts are
//! declared as small arithmetic expressions over the per-frame features of
//! the synthetic video ([`FrameStats`]). The vocabulary is deliberately
//! tiny — constants, features, `add`, `mul`, a scene-change selector and
//! one domain-specific fold over macroblock edges — but it states the
//! encoder's boundary-strength, coded-block and motion-search rules
//! *bit-exactly*: evaluation follows the expression tree, so a rule fixes
//! its `f64` operation order (and hence the trace, and hence every
//! downstream `RunStats`). The digests in `tests/ingest_goldens.rs` pin
//! the builtins' results.
//!
//! Concrete syntax (stored as a JSON string in the manifest):
//!
//! ```text
//! rule    := ("round1" | "trunc") "(" expr ")"
//! expr    := number | feature | "add(" expr "," expr ")"
//!          | "mul(" expr "," expr ")" | "scene(" expr "," expr ")"
//!          | "deblock_edges(" n "," n "," n "," n "," n ")"
//! feature := "mb" | "motion" | "residual" | "texture" | "edge"
//! ```

use mrts_workload::video::FrameStats;

use crate::IngestError;

/// A per-frame feature the rate language can reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feature {
    /// Macroblock count of the frame (`mb`).
    MbCount,
    /// Mean motion-vector magnitude normalised to `0..=1` (`motion`).
    Motion,
    /// Mean residual energy (`residual`).
    Residual,
    /// The scene's nominal texture level (`texture`).
    Texture,
    /// Mean edge strength (`edge`).
    Edge,
}

impl Feature {
    const ALL: [Feature; 5] = [
        Feature::MbCount,
        Feature::Motion,
        Feature::Residual,
        Feature::Texture,
        Feature::Edge,
    ];

    /// The feature's concrete-syntax name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Feature::MbCount => "mb",
            Feature::Motion => "motion",
            Feature::Residual => "residual",
            Feature::Texture => "texture",
            Feature::Edge => "edge",
        }
    }

    fn eval(self, frame: &FrameStats) -> f64 {
        match self {
            Feature::MbCount => frame.mb_count() as f64,
            Feature::Motion => frame.mean_mv() / 16.0,
            Feature::Residual => frame.mean_residual(),
            Feature::Texture => frame.texture,
            Feature::Edge => frame.mean_edge_strength(),
        }
    }
}

/// An execution-frequency expression.
#[derive(Debug, Clone, PartialEq)]
pub enum RateExpr {
    /// A literal.
    Const(f64),
    /// A per-frame feature.
    Feature(Feature),
    /// `add(a, b)` — `a + b`.
    Add(Box<RateExpr>, Box<RateExpr>),
    /// `mul(a, b)` — `a * b`.
    Mul(Box<RateExpr>, Box<RateExpr>),
    /// `scene(a, b)` — `a` on scene-change frames, `b` otherwise.
    IfScene(Box<RateExpr>, Box<RateExpr>),
    /// `deblock_edges(epm, sf, base, slope, exp)` — the H.264 loop-filter
    /// fold: per macroblock, the filtered-edge fraction is `sf` on
    /// scene-change frames and `clamp(base + slope * edge^exp, 0, 1)`
    /// otherwise; the frame count is `Σ round(epm * fraction)` (a `u64`
    /// sum, widened back to `f64`).
    DeblockEdges {
        /// Edges considered per macroblock.
        edges_per_mb: f64,
        /// Filtered fraction on scene-change (intra) frames.
        scene_fraction: f64,
        /// Base filtered fraction.
        base: f64,
        /// Slope of the edge-strength term.
        slope: f64,
        /// Exponent of the edge-strength term.
        exponent: f64,
    },
}

impl RateExpr {
    /// Evaluates the expression for one frame.
    #[must_use]
    pub fn eval(&self, frame: &FrameStats) -> f64 {
        match self {
            RateExpr::Const(c) => *c,
            RateExpr::Feature(feat) => feat.eval(frame),
            RateExpr::Add(a, b) => a.eval(frame) + b.eval(frame),
            RateExpr::Mul(a, b) => a.eval(frame) * b.eval(frame),
            RateExpr::IfScene(t, e) => {
                if frame.scene_change {
                    t.eval(frame)
                } else {
                    e.eval(frame)
                }
            }
            RateExpr::DeblockEdges {
                edges_per_mb,
                scene_fraction,
                base,
                slope,
                exponent,
            } => {
                let sum = frame
                    .macroblocks
                    .iter()
                    .map(|mb| {
                        let fraction = if frame.scene_change {
                            *scene_fraction
                        } else {
                            (base + slope * mb.edge_strength.powf(*exponent)).clamp(0.0, 1.0)
                        };
                        (edges_per_mb * fraction).round() as u64
                    })
                    .fold(0u64, u64::saturating_add);
                sum as f64
            }
        }
    }

    fn print_into(&self, out: &mut String) {
        match self {
            RateExpr::Const(c) => out.push_str(&format!("{c:?}")),
            RateExpr::Feature(feat) => out.push_str(feat.name()),
            RateExpr::Add(a, b) => {
                out.push_str("add(");
                a.print_into(out);
                out.push_str(", ");
                b.print_into(out);
                out.push(')');
            }
            RateExpr::Mul(a, b) => {
                out.push_str("mul(");
                a.print_into(out);
                out.push_str(", ");
                b.print_into(out);
                out.push(')');
            }
            RateExpr::IfScene(t, e) => {
                out.push_str("scene(");
                t.print_into(out);
                out.push_str(", ");
                e.print_into(out);
                out.push(')');
            }
            RateExpr::DeblockEdges {
                edges_per_mb,
                scene_fraction,
                base,
                slope,
                exponent,
            } => {
                out.push_str(&format!(
                    "deblock_edges({edges_per_mb:?}, {scene_fraction:?}, {base:?}, {slope:?}, {exponent:?})"
                ));
            }
        }
    }
}

/// How the evaluated `f64` becomes an execution count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Round {
    /// `round()` then floor at 1 — the H.264 encoder's convention.
    NearestMin1,
    /// Plain `as u64` truncation — the FFT/cipher/toy convention.
    Trunc,
}

/// A complete per-kernel rate rule: an expression plus its rounding mode.
#[derive(Debug, Clone, PartialEq)]
pub struct RateRule {
    /// The rounding convention.
    pub round: Round,
    /// The frequency expression.
    pub expr: RateExpr,
}

/// The most executions a rate rule yields for one kernel in one frame
/// (2³²). A larger value saturates here, so run totals summed over frames,
/// kernels and blocks stay far inside `u64`.
const MAX_FRAME_EXECUTIONS: u64 = 1 << 32;

impl RateRule {
    /// The kernel's execution count for one frame, at most 2³².
    #[must_use]
    pub fn executions(&self, frame: &FrameStats) -> u64 {
        let v = self.expr.eval(frame);
        let n = match self.round {
            Round::NearestMin1 => v.round().max(1.0) as u64,
            Round::Trunc => v as u64,
        };
        n.min(MAX_FRAME_EXECUTIONS)
    }

    /// Renders the rule in canonical concrete syntax.
    #[must_use]
    pub fn print(&self) -> String {
        let mut out = String::new();
        out.push_str(match self.round {
            Round::NearestMin1 => "round1(",
            Round::Trunc => "trunc(",
        });
        self.expr.print_into(&mut out);
        out.push(')');
        out
    }

    /// Parses a rule from concrete syntax; `path` qualifies error messages.
    ///
    /// # Errors
    ///
    /// [`IngestError::Pass`] on any lexical or grammatical problem.
    pub fn parse(text: &str, path: &str) -> Result<Self, IngestError> {
        let mut p = Parser { text, pos: 0, path };
        let round = match p.ident()?.as_str() {
            "round1" => Round::NearestMin1,
            "trunc" => Round::Trunc,
            other => {
                return Err(IngestError::at(
                    path,
                    format!("rate rule must start with 'round1' or 'trunc', got '{other}'"),
                ))
            }
        };
        p.expect('(')?;
        let expr = p.expr()?;
        p.expect(')')?;
        p.skip_ws();
        if p.pos != p.text.len() {
            return Err(IngestError::at(
                path,
                format!("trailing input after rate rule: '{}'", &p.text[p.pos..]),
            ));
        }
        Ok(RateRule { round, expr })
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    path: &'a str,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.text[self.pos..].starts_with(' ') {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: char) -> Result<(), IngestError> {
        self.skip_ws();
        if self.text[self.pos..].starts_with(c) {
            self.pos += c.len_utf8();
            Ok(())
        } else {
            Err(IngestError::at(
                self.path,
                format!("expected '{c}' at byte {} of rate rule", self.pos),
            ))
        }
    }

    fn ident(&mut self) -> Result<String, IngestError> {
        self.skip_ws();
        let rest = &self.text[self.pos..];
        let end = rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(rest.len());
        if end == 0 {
            return Err(IngestError::at(
                self.path,
                format!("expected identifier at byte {} of rate rule", self.pos),
            ));
        }
        self.pos += end;
        Ok(rest[..end].to_owned())
    }

    fn number(&mut self) -> Result<f64, IngestError> {
        self.skip_ws();
        let rest = &self.text[self.pos..];
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
            .unwrap_or(rest.len());
        let tok = &rest[..end];
        let v: f64 = tok.parse().map_err(|_| {
            IngestError::at(
                self.path,
                format!("bad numeric literal '{tok}' in rate rule"),
            )
        })?;
        self.pos += end;
        Ok(v)
    }

    fn args(&mut self, n: usize) -> Result<Vec<RateExpr>, IngestError> {
        self.expect('(')?;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            if i > 0 {
                self.expect(',')?;
            }
            out.push(self.expr()?);
        }
        self.expect(')')?;
        Ok(out)
    }

    fn expr(&mut self) -> Result<RateExpr, IngestError> {
        self.skip_ws();
        let rest = &self.text[self.pos..];
        let first = rest.chars().next().ok_or_else(|| {
            IngestError::at(self.path, "rate rule ended mid-expression".to_owned())
        })?;
        if first.is_ascii_digit() || first == '-' || first == '.' {
            return Ok(RateExpr::Const(self.number()?));
        }
        let name = self.ident()?;
        if let Some(feat) = Feature::ALL.iter().find(|f| f.name() == name) {
            return Ok(RateExpr::Feature(*feat));
        }
        match name.as_str() {
            "add" => {
                let mut a = self.args(2)?;
                let b = a.pop().expect("two args");
                Ok(RateExpr::Add(
                    Box::new(a.pop().expect("two args")),
                    Box::new(b),
                ))
            }
            "mul" => {
                let mut a = self.args(2)?;
                let b = a.pop().expect("two args");
                Ok(RateExpr::Mul(
                    Box::new(a.pop().expect("two args")),
                    Box::new(b),
                ))
            }
            "scene" => {
                let mut a = self.args(2)?;
                let b = a.pop().expect("two args");
                Ok(RateExpr::IfScene(
                    Box::new(a.pop().expect("two args")),
                    Box::new(b),
                ))
            }
            "deblock_edges" => {
                let a = self.args(5)?;
                let lit = |i: usize| -> Result<f64, IngestError> {
                    match &a[i] {
                        RateExpr::Const(c) => Ok(*c),
                        _ => Err(IngestError::at(
                            self.path,
                            "deblock_edges arguments must be numeric literals".to_owned(),
                        )),
                    }
                };
                Ok(RateExpr::DeblockEdges {
                    edges_per_mb: lit(0)?,
                    scene_fraction: lit(1)?,
                    base: lit(2)?,
                    slope: lit(3)?,
                    exponent: lit(4)?,
                })
            }
            other => Err(IngestError::at(
                self.path,
                format!("unknown rate function or feature '{other}'"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_print_round_trip() {
        let texts = [
            "round1(mul(mb, add(8.0, mul(48.0, motion))))",
            "trunc(mul(256.0, add(0.3, mul(0.7, residual))))",
            "round1(scene(mul(mb, 8.0), mul(mb, texture)))",
            "round1(deblock_edges(20.0, 0.9, 0.02, 0.9, 1.8))",
            "trunc(add(200.0, mul(1800.0, edge)))",
        ];
        for t in texts {
            let rule = RateRule::parse(t, "k").expect("parses");
            assert_eq!(rule.print(), t, "canonical form is a fixed point");
            let again = RateRule::parse(&rule.print(), "k").expect("reparses");
            assert_eq!(rule, again);
        }
    }

    #[test]
    fn parse_errors_are_field_qualified() {
        let err = RateRule::parse("round1(frob(1.0))", "kernels[3].rate").unwrap_err();
        assert_eq!(
            err.to_string(),
            "kernels[3].rate: unknown rate function or feature 'frob'"
        );
        assert!(RateRule::parse("ceil(mb)", "k").is_err());
        assert!(RateRule::parse("round1(mb) junk", "k").is_err());
        assert!(RateRule::parse("round1(add(mb))", "k").is_err());
    }
}
