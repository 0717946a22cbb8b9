//! Vectorized columnar batch execution for compiled expression programs.
//!
//! The row path ([`CompiledExpr::eval_with`]) re-dispatches every opcode
//! for every row. The vector path amortises that dispatch across a
//! [`ColumnBatch`] of up to [`VECTOR_BATCH_ROWS`] rows: each postfix op
//! runs once and loops over the batch's *active lanes* (the selection
//! vector), with stack slots widened to one value per lane.
//!
//! Short-circuit jumps narrow the selection instead of branching: lanes
//! whose stack top decides the jump are *parked* at the jump target and
//! re-merged into the active set when the program counter reaches it.
//! Because compilation is structured (every jump is forward, and every
//! path into a merge point carries the same stack depth), parked lanes
//! always rejoin at a consistent depth, and a lane's slot values are
//! never overwritten while it is parked — ops only write active lanes.
//!
//! Errors are per-lane: a failing kernel parks the lane with its error
//! and evaluation continues for the rest. At the end the error of the
//! *lowest* lane wins, which is exactly the first error the row path
//! would have hit — vector-safe programs have no side effects, so the
//! extra evaluation of later lanes is unobservable.

use crate::error::{Error, Result};
use crate::expr::compile::{CompiledExpr, ExecCounter, ExecMode, Op};
use crate::expr::eval::{
    cast_value, eval_binary, eval_expr, eval_scalar_func, eval_unary, like_match, logical_and,
    logical_or, maybe_negate, QueryCtx,
};
use crate::expr::{BinOp, Expr};
use crate::row::Row;
use crate::types::Schema;
use crate::value::{Date, Value};
use std::cmp::Ordering;

/// Rows per column batch. Small enough that a batch's working set stays
/// cache-resident, large enough to amortise per-op dispatch.
pub const VECTOR_BATCH_ROWS: usize = 1024;

/// Validity bitmap: bit set ⇒ the value is present (not NULL).
#[derive(Debug, Clone, Default)]
pub struct Bitmap {
    words: Vec<u64>,
}

impl Bitmap {
    /// An all-invalid bitmap covering `len` lanes.
    pub fn zeroed(len: usize) -> Bitmap {
        Bitmap {
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Mark lane `i` valid.
    #[inline]
    pub fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Whether lane `i` is valid.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 == 1
    }
}

/// One extracted column of a batch: a typed vector plus validity, or a
/// marker that values stay row-borrowed (strings and mixed types, which
/// would cost a clone per row to extract even when never accessed).
#[derive(Debug, Clone)]
pub enum ColumnData {
    Ints(Vec<i64>),
    Floats(Vec<f64>),
    Bools(Vec<bool>),
    Dates(Vec<Date>),
    /// Values are read straight out of the source rows on access.
    Rowwise,
}

/// A typed column of a [`ColumnBatch`].
#[derive(Debug, Clone)]
pub struct BatchColumn {
    pub data: ColumnData,
    /// Meaningful for typed [`ColumnData`] variants; unused for `Rowwise`.
    pub validity: Bitmap,
}

/// A column-major view over up to [`VECTOR_BATCH_ROWS`] consecutive rows:
/// typed vectors for the columns the consumer asked for, a validity
/// bitmap per column, and a selection vector of live lanes.
pub struct ColumnBatch<'a> {
    rows: &'a [Row],
    /// Extracted columns, indexed by source column position. Positions
    /// not requested at construction hold `None` and read row-wise.
    columns: Vec<Option<BatchColumn>>,
    /// Live lanes, ascending. Starts dense (`0..rows.len()`).
    sel: Vec<u32>,
}

impl<'a> ColumnBatch<'a> {
    /// Build a batch over `rows`, extracting the columns listed in
    /// `cols` into typed vectors (others remain readable row-wise).
    pub fn from_rows(rows: &'a [Row], cols: &[usize]) -> ColumnBatch<'a> {
        let width = cols.iter().copied().max().map_or(0, |m| m + 1);
        let mut columns = vec![None; width];
        for &c in cols {
            if columns[c].is_none() {
                columns[c] = Some(extract_column(rows, c));
            }
        }
        ColumnBatch {
            rows,
            columns,
            sel: (0..rows.len() as u32).collect(),
        }
    }

    /// Number of rows in the batch (dense, before selection).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the batch holds no rows at all.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The selection vector: live lanes, ascending.
    pub fn sel(&self) -> &[u32] {
        &self.sel
    }

    /// Replace the selection vector (lanes must be ascending and in
    /// range). Lets a consumer thread a pre-narrowed batch onward.
    pub fn set_sel(&mut self, sel: Vec<u32>) {
        debug_assert!(sel.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(sel.iter().all(|&l| (l as usize) < self.rows.len()));
        self.sel = sel;
    }

    /// Read one value, preferring the typed column.
    #[inline]
    pub fn value(&self, col: usize, lane: usize) -> Value {
        match self.columns.get(col).and_then(Option::as_ref) {
            Some(c) => match &c.data {
                ColumnData::Ints(v) if c.validity.get(lane) => Value::Int(v[lane]),
                ColumnData::Floats(v) if c.validity.get(lane) => Value::Float(v[lane]),
                ColumnData::Bools(v) if c.validity.get(lane) => Value::Bool(v[lane]),
                ColumnData::Dates(v) if c.validity.get(lane) => Value::Date(v[lane]),
                ColumnData::Rowwise => self.rows[lane][col].clone(),
                _ => Value::Null,
            },
            None => self.rows[lane][col].clone(),
        }
    }
}

/// Extract one column into a typed vector when every value fits a single
/// scalar type (NULLs allowed); otherwise leave it row-borrowed.
fn extract_column(rows: &[Row], col: usize) -> BatchColumn {
    let rowwise = BatchColumn {
        data: ColumnData::Rowwise,
        validity: Bitmap::default(),
    };
    let mut validity = Bitmap::zeroed(rows.len());
    // Classify from the first non-null value; bail to row-wise on any
    // mismatch (possible in derived relations with loose schemas).
    let first = rows
        .iter()
        .map(|r| &r[col])
        .position(|v| !matches!(v, Value::Null));
    let Some(first) = first else {
        // All-NULL: a typed vector with an all-zero validity bitmap.
        return BatchColumn {
            data: ColumnData::Ints(vec![0; rows.len()]),
            validity,
        };
    };
    macro_rules! gather {
        ($variant:ident, $ctor:ident, $default:expr) => {{
            let mut out = vec![$default; rows.len()];
            for (i, row) in rows.iter().enumerate() {
                match &row[col] {
                    Value::$variant(x) => {
                        out[i] = x.clone();
                        validity.set(i);
                    }
                    Value::Null => {}
                    _ => return rowwise,
                }
            }
            BatchColumn {
                data: ColumnData::$ctor(out),
                validity,
            }
        }};
    }
    match &rows[first][col] {
        Value::Int(_) => gather!(Int, Ints, 0i64),
        Value::Float(_) => gather!(Float, Floats, 0f64),
        Value::Bool(_) => gather!(Bool, Bools, false),
        Value::Date(d) => {
            let d = *d;
            gather!(Date, Dates, d)
        }
        _ => rowwise,
    }
}

/// Reusable evaluator state: lane-wide stack slots, the active lane set,
/// parked lanes keyed by jump target, and per-lane errors.
#[derive(Default)]
pub(crate) struct VectorScratch {
    slots: Vec<Vec<Value>>,
    depth: usize,
    active: Vec<u32>,
    /// Lanes waiting at a forward jump target: `(target_pc, stack_depth
    /// on the lanes' path, lanes)`.
    parked: Vec<(usize, usize, Vec<u32>)>,
    errs: Vec<(u32, Error)>,
    merge_buf: Vec<u32>,
    lane_buf: Vec<u32>,
    free: Vec<Vec<u32>>,
    width: usize,
}

impl VectorScratch {
    fn reset(&mut self, width: usize, sel: &[u32]) {
        self.width = width;
        self.depth = 0;
        self.active.clear();
        self.active.extend_from_slice(sel);
        for (_, _, mut lanes) in self.parked.drain(..) {
            lanes.clear();
            self.free.push(lanes);
        }
        self.errs.clear();
    }

    /// Bump `depth`, making sure the new top slot covers every lane.
    fn push_slot(&mut self) -> usize {
        if self.slots.len() == self.depth {
            self.slots.push(vec![Value::Null; self.width]);
        } else if self.slots[self.depth].len() < self.width {
            self.slots[self.depth].resize(self.width, Value::Null);
        }
        self.depth += 1;
        self.depth - 1
    }

    fn take(&mut self, slot: usize, lane: u32) -> Value {
        std::mem::replace(&mut self.slots[slot][lane as usize], Value::Null)
    }

    /// Record a lane error and (by contract of the caller) drop the lane
    /// from the active set.
    fn fail(&mut self, lane: u32, e: Error) {
        self.errs.push((lane, e));
    }

    /// Park `lanes` (ascending, drained from `active` in order) at `pc`,
    /// remembering the stack depth their path carries to the target.
    /// Empty lane sets are parked too: when every lane has errored or
    /// jumped elsewhere, the recorded depth is the only thing that keeps
    /// the linear walk's depth counter in sync across branch boundaries.
    fn park(&mut self, pc: usize, depth: usize, lanes: Vec<u32>) {
        self.parked.push((pc, depth, lanes));
    }

    fn lane_vec(&mut self) -> Vec<u32> {
        self.free.pop().unwrap_or_default()
    }

    /// Merge every lane set parked at `pc` back into `active`. When no
    /// lane fell through to `pc` (e.g. the start of the next CASE
    /// branch, reachable only by jump), the linear walk's depth counter
    /// is stale — restore the parked path's depth. When lanes did fall
    /// through, structured compilation guarantees both paths agree.
    fn merge_at(&mut self, pc: usize) {
        while let Some(pos) = self.parked.iter().position(|(t, _, _)| *t == pc) {
            let (_, depth, mut lanes) = self.parked.swap_remove(pos);
            if self.active.is_empty() {
                self.depth = depth;
            } else {
                debug_assert_eq!(self.depth, depth, "merge paths must agree on depth");
            }
            self.merge_buf.clear();
            let (mut i, mut j) = (0, 0);
            while i < self.active.len() && j < lanes.len() {
                if self.active[i] < lanes[j] {
                    self.merge_buf.push(self.active[i]);
                    i += 1;
                } else {
                    self.merge_buf.push(lanes[j]);
                    j += 1;
                }
            }
            self.merge_buf.extend_from_slice(&self.active[i..]);
            self.merge_buf.extend_from_slice(&lanes[j..]);
            std::mem::swap(&mut self.active, &mut self.merge_buf);
            lanes.clear();
            self.free.push(lanes);
        }
    }

    /// Drop lanes listed in `lane_buf` (an in-order subset of `active`).
    fn drop_failed(&mut self) {
        if self.lane_buf.is_empty() {
            return;
        }
        let buf = std::mem::take(&mut self.lane_buf);
        let mut fi = 0;
        self.active.retain(|&l| {
            if fi < buf.len() && buf[fi] == l {
                fi += 1;
                false
            } else {
                true
            }
        });
        self.lane_buf = buf;
        self.lane_buf.clear();
    }
}

/// Outcome of a batch evaluation: the lowest-lane error, if any lane
/// failed. Results for failed lanes are NULL placeholders in `out`.
pub(crate) type BatchError = Option<(usize, Error)>;

impl CompiledExpr {
    /// Evaluate the program over every selected lane of `batch`,
    /// appending one result per lane (in selection order) to `out`.
    /// `narrowings` accumulates the number of conditional jumps that
    /// parked at least one lane.
    pub(crate) fn eval_batch(
        &self,
        batch: &ColumnBatch<'_>,
        ctx: &mut dyn QueryCtx,
        scratch: &mut VectorScratch,
        out: &mut Vec<Value>,
        narrowings: &mut u64,
    ) -> BatchError {
        scratch.reset(batch.len(), batch.sel());
        let mut pc = 0usize;
        while pc < self.ops.len() {
            scratch.merge_at(pc);
            match &self.ops[pc] {
                Op::Const(v) => {
                    let s = scratch.push_slot();
                    for i in 0..scratch.active.len() {
                        let lane = scratch.active[i] as usize;
                        scratch.slots[s][lane] = v.clone();
                    }
                }
                Op::Col(idx) => {
                    let s = scratch.push_slot();
                    for i in 0..scratch.active.len() {
                        let lane = scratch.active[i] as usize;
                        scratch.slots[s][lane] = batch.value(*idx, lane);
                    }
                }
                Op::Fail(e) => {
                    // Emitted in place of a value push: every active lane
                    // fails, but the conceptual stack still grows so
                    // parked lanes merge back at the right depth.
                    scratch.push_slot();
                    let lanes = std::mem::take(&mut scratch.active);
                    for &lane in &lanes {
                        scratch.fail(lane, (**e).clone());
                    }
                    scratch.active = lanes;
                    scratch.active.clear();
                }
                Op::HostVar(name) => {
                    let v = ctx.host_var(name);
                    let s = scratch.push_slot();
                    match v {
                        Ok(v) => {
                            for i in 0..scratch.active.len() {
                                let lane = scratch.active[i] as usize;
                                scratch.slots[s][lane] = v.clone();
                            }
                        }
                        Err(e) => {
                            let lanes = std::mem::take(&mut scratch.active);
                            for &lane in &lanes {
                                scratch.fail(lane, e.clone());
                            }
                            scratch.active = lanes;
                            scratch.active.clear();
                        }
                    }
                }
                Op::NextVal(_) => {
                    // Not vector-safe (sites route such programs to the
                    // row path); fail deterministically if reached.
                    scratch.push_slot();
                    let lanes = std::mem::take(&mut scratch.active);
                    for &lane in &lanes {
                        scratch.fail(lane, Error::unsupported("sequence draw on the vector path"));
                    }
                    scratch.active = lanes;
                    scratch.active.clear();
                }
                Op::Unary(op) => {
                    let s = scratch.depth - 1;
                    for i in 0..scratch.active.len() {
                        let lane = scratch.active[i];
                        let v = scratch.take(s, lane);
                        match eval_unary(*op, v) {
                            Ok(v) => scratch.slots[s][lane as usize] = v,
                            Err(e) => {
                                scratch.fail(lane, e);
                                scratch.lane_buf.push(lane);
                            }
                        }
                    }
                    scratch.drop_failed();
                }
                Op::Binary(op) => {
                    let (l_s, r_s) = (scratch.depth - 2, scratch.depth - 1);
                    for i in 0..scratch.active.len() {
                        let lane = scratch.active[i];
                        let r = scratch.take(r_s, lane);
                        let l = scratch.take(l_s, lane);
                        match eval_binary(*op, l, r) {
                            Ok(v) => scratch.slots[l_s][lane as usize] = v,
                            Err(e) => {
                                scratch.fail(lane, e);
                                scratch.lane_buf.push(lane);
                            }
                        }
                    }
                    scratch.depth -= 1;
                    scratch.drop_failed();
                }
                Op::And => {
                    let (l_s, r_s) = (scratch.depth - 2, scratch.depth - 1);
                    for i in 0..scratch.active.len() {
                        let lane = scratch.active[i];
                        let r = scratch.take(r_s, lane);
                        let l = scratch.take(l_s, lane);
                        scratch.slots[l_s][lane as usize] = logical_and(l, r);
                    }
                    scratch.depth -= 1;
                }
                Op::Or => {
                    let (l_s, r_s) = (scratch.depth - 2, scratch.depth - 1);
                    for i in 0..scratch.active.len() {
                        let lane = scratch.active[i];
                        let r = scratch.take(r_s, lane);
                        let l = scratch.take(l_s, lane);
                        scratch.slots[l_s][lane as usize] = logical_or(l, r);
                    }
                    scratch.depth -= 1;
                }
                Op::JumpIfFalse(target) => {
                    let s = scratch.depth - 1;
                    let mut jumped = scratch.lane_vec();
                    let slots = &scratch.slots[s];
                    scratch.active.retain(|&lane| {
                        if matches!(slots[lane as usize], Value::Bool(false)) {
                            jumped.push(lane);
                            false
                        } else {
                            true
                        }
                    });
                    if !jumped.is_empty() {
                        *narrowings += 1;
                    }
                    scratch.park(*target, scratch.depth, jumped);
                }
                Op::JumpIfTrue(target) => {
                    let s = scratch.depth - 1;
                    let mut jumped = scratch.lane_vec();
                    let slots = &scratch.slots[s];
                    scratch.active.retain(|&lane| {
                        if matches!(slots[lane as usize], Value::Bool(true)) {
                            jumped.push(lane);
                            false
                        } else {
                            true
                        }
                    });
                    if !jumped.is_empty() {
                        *narrowings += 1;
                    }
                    scratch.park(*target, scratch.depth, jumped);
                }
                Op::Jump(target) => {
                    let mut lanes = scratch.lane_vec();
                    lanes.append(&mut scratch.active);
                    scratch.park(*target, scratch.depth, lanes);
                }
                Op::PopJumpUnlessTrue(target) => {
                    let s = scratch.depth - 1;
                    let mut jumped = scratch.lane_vec();
                    let slots = &mut scratch.slots[s];
                    scratch.active.retain(|&lane| {
                        let v = std::mem::replace(&mut slots[lane as usize], Value::Null);
                        if v.is_true() {
                            true
                        } else {
                            jumped.push(lane);
                            false
                        }
                    });
                    scratch.depth -= 1;
                    if !jumped.is_empty() {
                        *narrowings += 1;
                    }
                    scratch.park(*target, scratch.depth, jumped);
                }
                Op::Between { negated } => {
                    let (v_s, lo_s, hi_s) =
                        (scratch.depth - 3, scratch.depth - 2, scratch.depth - 1);
                    for i in 0..scratch.active.len() {
                        let lane = scratch.active[i];
                        let high = scratch.take(hi_s, lane);
                        let low = scratch.take(lo_s, lane);
                        let v = scratch.take(v_s, lane);
                        let verdict = eval_binary(BinOp::GtEq, v.clone(), low).and_then(|ge| {
                            let le = eval_binary(BinOp::LtEq, v, high)?;
                            Ok(maybe_negate(logical_and(ge, le), *negated))
                        });
                        match verdict {
                            Ok(v) => scratch.slots[v_s][lane as usize] = v,
                            Err(e) => {
                                scratch.fail(lane, e);
                                scratch.lane_buf.push(lane);
                            }
                        }
                    }
                    scratch.depth -= 2;
                    scratch.drop_failed();
                }
                Op::IsNull { negated } => {
                    let s = scratch.depth - 1;
                    for i in 0..scratch.active.len() {
                        let lane = scratch.active[i];
                        let v = scratch.take(s, lane);
                        scratch.slots[s][lane as usize] = Value::Bool(v.is_null() != *negated);
                    }
                }
                Op::Like { negated } => {
                    let (v_s, p_s) = (scratch.depth - 2, scratch.depth - 1);
                    for i in 0..scratch.active.len() {
                        let lane = scratch.active[i];
                        let pattern = scratch.take(p_s, lane);
                        let v = scratch.take(v_s, lane);
                        let verdict = if v.is_null() || pattern.is_null() {
                            Ok(Value::Null)
                        } else {
                            v.as_str().and_then(|s| {
                                let hit = like_match(s, pattern.as_str()?);
                                Ok(maybe_negate(Value::Bool(hit), *negated))
                            })
                        };
                        match verdict {
                            Ok(v) => scratch.slots[v_s][lane as usize] = v,
                            Err(e) => {
                                scratch.fail(lane, e);
                                scratch.lane_buf.push(lane);
                            }
                        }
                    }
                    scratch.depth -= 1;
                    scratch.drop_failed();
                }
                Op::InStart { end } => {
                    // NULL test values already are the result: park them
                    // at `end`, where the stack holds just the result.
                    let s = scratch.depth - 1;
                    let mut jumped = scratch.lane_vec();
                    let slots = &scratch.slots[s];
                    scratch.active.retain(|&lane| {
                        if slots[lane as usize].is_null() {
                            jumped.push(lane);
                            false
                        } else {
                            true
                        }
                    });
                    if !jumped.is_empty() {
                        *narrowings += 1;
                    }
                    scratch.park(*end, scratch.depth, jumped);
                    let acc = scratch.push_slot();
                    for i in 0..scratch.active.len() {
                        let lane = scratch.active[i] as usize;
                        scratch.slots[acc][lane] = Value::Bool(false);
                    }
                }
                Op::InFold => {
                    let (v_s, acc_s, item_s) =
                        (scratch.depth - 3, scratch.depth - 2, scratch.depth - 1);
                    for i in 0..scratch.active.len() {
                        let lane = scratch.active[i];
                        let item = scratch.take(item_s, lane);
                        let acc = scratch.take(acc_s, lane);
                        let hit = if item.is_null() {
                            Ok(Value::Null)
                        } else {
                            scratch.slots[v_s][lane as usize]
                                .sql_cmp(&item)
                                .map(|ord| Value::Bool(ord == Some(Ordering::Equal)))
                        };
                        match hit {
                            Ok(hit) => scratch.slots[acc_s][lane as usize] = logical_or(acc, hit),
                            Err(e) => {
                                scratch.fail(lane, e);
                                scratch.lane_buf.push(lane);
                            }
                        }
                    }
                    scratch.depth -= 1;
                    scratch.drop_failed();
                }
                Op::InFinish { negated } => {
                    let (v_s, acc_s) = (scratch.depth - 2, scratch.depth - 1);
                    for i in 0..scratch.active.len() {
                        let lane = scratch.active[i];
                        let acc = scratch.take(acc_s, lane);
                        let _v = scratch.take(v_s, lane);
                        scratch.slots[v_s][lane as usize] = match acc {
                            Value::Bool(true) => maybe_negate(Value::Bool(true), *negated),
                            Value::Null => Value::Null,
                            _ => maybe_negate(Value::Bool(false), *negated),
                        };
                    }
                    scratch.depth -= 1;
                }
                Op::Call { name, argc } => {
                    let base = scratch.depth - argc;
                    for i in 0..scratch.active.len() {
                        let lane = scratch.active[i];
                        let args: Vec<Value> = (base..scratch.depth)
                            .map(|s| scratch.take(s, lane))
                            .collect();
                        match eval_scalar_func(name, args) {
                            Ok(v) => scratch.slots[base][lane as usize] = v,
                            Err(e) => {
                                scratch.fail(lane, e);
                                scratch.lane_buf.push(lane);
                            }
                        }
                    }
                    scratch.depth = base + 1;
                    scratch.drop_failed();
                }
                Op::Cast(dtype) => {
                    let s = scratch.depth - 1;
                    for i in 0..scratch.active.len() {
                        let lane = scratch.active[i];
                        let v = scratch.take(s, lane);
                        match cast_value(v, *dtype) {
                            Ok(v) => scratch.slots[s][lane as usize] = v,
                            Err(e) => {
                                scratch.fail(lane, e);
                                scratch.lane_buf.push(lane);
                            }
                        }
                    }
                    scratch.drop_failed();
                }
                Op::Fallback(expr) => {
                    // Not vector-safe; kept deterministic for defence in
                    // depth by interpreting per lane in ascending order.
                    let schema = self.fallback_schema.as_ref().expect("fallback schema");
                    let s = scratch.push_slot();
                    for i in 0..scratch.active.len() {
                        let lane = scratch.active[i];
                        match eval_expr(expr, schema, &batch.rows[lane as usize], ctx) {
                            Ok(v) => scratch.slots[s][lane as usize] = v,
                            Err(e) => {
                                scratch.fail(lane, e);
                                scratch.lane_buf.push(lane);
                            }
                        }
                    }
                    scratch.drop_failed();
                }
            }
            pc += 1;
        }
        scratch.merge_at(pc);
        debug_assert_eq!(scratch.depth, 1, "program must leave one result");
        // Emit results in selection order; errored lanes get a NULL
        // placeholder and the lowest one decides the batch error.
        let first_err = scratch
            .errs
            .iter()
            .min_by_key(|(lane, _)| *lane)
            .map(|(lane, e)| (*lane as usize, e.clone()));
        match &first_err {
            None => {
                for i in 0..batch.sel().len() {
                    let lane = batch.sel()[i];
                    out.push(scratch.take(0, lane));
                }
            }
            Some(_) => {
                for &lane in batch.sel() {
                    if scratch.errs.iter().any(|(l, _)| *l == lane) {
                        out.push(Value::Null);
                    } else {
                        out.push(scratch.take(0, lane));
                    }
                }
            }
        }
        first_err
    }
}

/// Whether an expression tree can run on the vector machine: no subquery
/// forms (interpreter fallback) and no sequence draws (whose per-row
/// interleaving the row path must keep). Mirrors
/// [`CompiledExpr::vector_safe`] without compiling.
pub fn expr_vector_safe(expr: &Expr) -> bool {
    let mut safe = true;
    expr.walk(&mut |e| match e {
        Expr::NextVal(_)
        | Expr::ScalarSubquery(_)
        | Expr::Exists { .. }
        | Expr::InSubquery { .. } => safe = false,
        _ => {}
    });
    safe
}

/// A planned vector site: the compiled programs for every expression the
/// site evaluates per row, plus the union of referenced columns.
pub(crate) struct VectorPlan {
    programs: Vec<CompiledExpr>,
    cols: Vec<usize>,
    /// Forced-vector mode with a program the machine cannot host: whole
    /// batches run the row loop instead (draw interleaving must hold
    /// across *all* the site's programs).
    fallback: bool,
    scratch: VectorScratch,
    stack: Vec<Value>,
}

impl VectorPlan {
    /// Decide whether this site runs vectorized under `ctx`'s exec mode,
    /// and compile its programs if so. `None` means: use the row path.
    pub(crate) fn plan(
        exprs: &[&Expr],
        schema: &Schema,
        ctx: &mut dyn QueryCtx,
    ) -> Option<VectorPlan> {
        match ctx.exec() {
            ExecMode::Row => return None,
            ExecMode::Vector => {}
            ExecMode::Auto => {
                // Auto defers to the sqlexec knob (no programs, no batch
                // path) and takes the vector path only when every
                // program is vector-safe — decided before compiling so
                // compile-work telemetry matches the row path.
                if !ctx.sqlexec().use_compiled() || !exprs.iter().all(|e| expr_vector_safe(e)) {
                    return None;
                }
            }
        }
        let programs: Vec<CompiledExpr> = exprs
            .iter()
            .map(|e| CompiledExpr::compile(e, schema, ctx))
            .collect();
        let fallback = !programs.iter().all(CompiledExpr::vector_safe);
        let mut cols: Vec<usize> = programs
            .iter()
            .flat_map(|p| p.ops.iter())
            .filter_map(|op| match op {
                Op::Col(idx) => Some(*idx),
                _ => None,
            })
            .collect();
        cols.sort_unstable();
        cols.dedup();
        Some(VectorPlan {
            programs,
            cols,
            fallback,
            scratch: VectorScratch::default(),
            stack: Vec::new(),
        })
    }

    /// Evaluate every program over `rows` in batches, appending one value
    /// per row to `out[i]` for program `i`. Bumps the
    /// `relational.vector.*` counters; errors carry the exact value the
    /// row path would have produced first (row-major order).
    pub(crate) fn eval_columns(
        &mut self,
        rows: &[Row],
        ctx: &mut dyn QueryCtx,
        out: &mut [Vec<Value>],
    ) -> Result<()> {
        debug_assert_eq!(out.len(), self.programs.len());
        let VectorPlan {
            programs,
            cols,
            fallback,
            scratch,
            stack,
        } = self;
        for chunk in rows.chunks(VECTOR_BATCH_ROWS) {
            ctx.bump(ExecCounter::VectorBatches, 1);
            ctx.bump(ExecCounter::VectorRows, chunk.len() as u64);
            if *fallback {
                // Row loop per batch, preserving the row path's exact
                // per-row, per-program evaluation order.
                ctx.bump(ExecCounter::VectorFallbackBatches, 1);
                for row in chunk {
                    for (program, col) in programs.iter().zip(out.iter_mut()) {
                        col.push(program.eval_with(row, ctx, stack)?);
                    }
                }
                continue;
            }
            let batch = ColumnBatch::from_rows(chunk, cols);
            let mut narrowings = 0u64;
            // Programs run batch-major; the winning error is the one the
            // row-major path would hit first: lowest (lane, program).
            let mut best: Option<(usize, usize, Error)> = None;
            for (j, (program, col)) in programs.iter().zip(out.iter_mut()).enumerate() {
                if let Some((lane, e)) =
                    program.eval_batch(&batch, ctx, scratch, col, &mut narrowings)
                {
                    if best
                        .as_ref()
                        .map_or(true, |(bl, bj, _)| (lane, j) < (*bl, *bj))
                    {
                        best = Some((lane, j, e));
                    }
                }
            }
            if narrowings > 0 {
                ctx.bump(ExecCounter::VectorSelNarrowings, narrowings);
            }
            if let Some((_, _, e)) = best {
                return Err(e);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::eval::NoCtx;
    use crate::sql::parser::parse_expression;
    use crate::types::{Column, DataType};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Str),
            Column::new("c", DataType::Float),
        ])
    }

    fn rows() -> Vec<Row> {
        (0..10)
            .map(|i| {
                vec![
                    if i % 4 == 3 {
                        Value::Null
                    } else {
                        Value::Int(i)
                    },
                    if i % 5 == 2 {
                        Value::Null
                    } else {
                        Value::Str(format!("s{i}"))
                    },
                    Value::Float(i as f64 / 2.0),
                ]
            })
            .collect()
    }

    /// The batch path must agree with the row path on every row — on the
    /// values, or on the first error in row order.
    fn agree(sql: &str, rows: &[Row]) {
        let expr = parse_expression(sql).unwrap();
        let s = schema();
        let program = CompiledExpr::compile(&expr, &s, &mut NoCtx);
        let row_wise: Vec<Result<Value>> =
            rows.iter().map(|r| program.eval(r, &mut NoCtx)).collect();
        let expected: Result<Vec<Value>> = row_wise.into_iter().collect();

        let batch = ColumnBatch::from_rows(rows, &collect_cols(&program));
        let mut out = Vec::new();
        let mut narrowings = 0;
        let err = program.eval_batch(
            &batch,
            &mut NoCtx,
            &mut VectorScratch::default(),
            &mut out,
            &mut narrowings,
        );
        match (expected, err) {
            (Ok(values), None) => assert_eq!(out, values, "{sql}"),
            (Err(want), Some((_, got))) => assert_eq!(got, want, "{sql}"),
            (want, got) => panic!("{sql}: row path {want:?} vs batch error {got:?}"),
        }
    }

    fn collect_cols(p: &CompiledExpr) -> Vec<usize> {
        let mut cols: Vec<usize> = p
            .ops
            .iter()
            .filter_map(|op| match op {
                Op::Col(i) => Some(*i),
                _ => None,
            })
            .collect();
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    #[test]
    fn batch_agrees_with_row_path_on_the_scalar_grammar() {
        let rows = rows();
        for sql in [
            "a + 2 * 3",
            "a / 2",
            "-a + 10",
            "a >= 5 AND c < 3.0",
            "a > 100 OR b = 's3'",
            "NOT (a = 5)",
            "a BETWEEN 1 AND 6",
            "a NOT BETWEEN 6 AND 9",
            "b LIKE 's%'",
            "b NOT LIKE '_1%'",
            "b IS NOT NULL",
            "a IN (1, 3, 5)",
            "a NOT IN (1, 3)",
            "1 IN (2, a)",
            "UPPER(b)",
            "LENGTH(b) + a",
            "SUBSTR(b, 2, 1)",
            "CAST(a AS FLOAT) + c",
            "CASE WHEN a > 3 THEN 'big' WHEN a > 1 THEN 'mid' ELSE 'small' END",
            "CASE WHEN a > 9 THEN 'big' END",
            "COALESCE(NULL, b)",
            "a || b",
            "a AND 1",
            "a = 2 OR (a AND 1)",
            "a > 1 AND (a AND 1)",
        ] {
            agree(sql, &rows);
        }
    }

    #[test]
    fn errors_surface_at_the_first_failing_row() {
        let rows = rows();
        // Rows where a = 0 divide by zero; every earlier row is fine.
        agree("10 / (a - 4)", &rows);
        agree("1 / 0", &rows);
        agree("a + 1 / 0", &rows);
        // A FALSE guard must shield the failing side per lane.
        agree("a < 4 AND 10 / (a - 4) > 0", &rows);
        // A branch condition that errors EVERY lane leaves no lanes to
        // park; the depth counter must stay in sync across the dead
        // branch boundaries regardless.
        agree("CASE WHEN UPPER(1.5) THEN a ELSE a + 1 END", &rows);
        agree("CASE WHEN 1/0 THEN a WHEN a > 2 THEN 1 ELSE 2 END", &rows);
    }

    #[test]
    fn narrowing_is_counted_when_lanes_park() {
        let expr = parse_expression("a > 3 AND c > 1.0").unwrap();
        let s = schema();
        let program = CompiledExpr::compile(&expr, &s, &mut NoCtx);
        let rows = rows();
        let batch = ColumnBatch::from_rows(&rows, &collect_cols(&program));
        let mut out = Vec::new();
        let mut narrowings = 0;
        assert!(program
            .eval_batch(
                &batch,
                &mut NoCtx,
                &mut VectorScratch::default(),
                &mut out,
                &mut narrowings
            )
            .is_none());
        assert!(narrowings > 0, "a > 3 parks lanes 0..=3");
    }

    #[test]
    fn typed_extraction_keeps_nulls() {
        let rows = rows();
        let batch = ColumnBatch::from_rows(&rows, &[0, 1, 2]);
        assert_eq!(batch.value(0, 3), Value::Null);
        assert_eq!(batch.value(0, 4), Value::Int(4));
        assert_eq!(batch.value(1, 2), Value::Null);
        assert_eq!(batch.value(2, 5), Value::Float(2.5));
    }

    #[test]
    fn mixed_columns_fall_back_to_rowwise_reads() {
        let rows = vec![
            vec![Value::Int(1)],
            vec![Value::Str("two".into())],
            vec![Value::Null],
        ];
        let batch = ColumnBatch::from_rows(&rows, &[0]);
        assert_eq!(batch.value(0, 0), Value::Int(1));
        assert_eq!(batch.value(0, 1), Value::Str("two".into()));
        assert_eq!(batch.value(0, 2), Value::Null);
    }

    #[test]
    fn selection_vector_restricts_evaluation() {
        let expr = parse_expression("10 / a").unwrap();
        let s = schema();
        let program = CompiledExpr::compile(&expr, &s, &mut NoCtx);
        let rows = vec![
            vec![Value::Int(0), Value::Null, Value::Null], // would error
            vec![Value::Int(2), Value::Null, Value::Null],
            vec![Value::Int(5), Value::Null, Value::Null],
        ];
        let mut batch = ColumnBatch::from_rows(&rows, &[0]);
        batch.set_sel(vec![1, 2]);
        let mut out = Vec::new();
        let mut narrowings = 0;
        assert!(program
            .eval_batch(
                &batch,
                &mut NoCtx,
                &mut VectorScratch::default(),
                &mut out,
                &mut narrowings
            )
            .is_none());
        assert_eq!(out, vec![Value::Float(5.0), Value::Float(2.0)]);
    }
}
