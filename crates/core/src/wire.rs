//! The wire format used to *ship* plan functions and parameter tuples.
//!
//! The paper's `FF_APPLYP` "ships in parallel to other query processes the
//! same plan function for different parameters" — code shipping, not
//! shared memory. To reproduce that faithfully, plan functions and tuples
//! cross process boundaries as serialized bytes: the receiving query
//! process deserializes and installs its own copy. Message sizes feed the
//! client cost model (`plan_ship_per_kib`).
//!
//! The format is a deliberately simple tagged binary encoding (little
//! endian, u32 lengths). It is not versioned — both ends are always the
//! same build, as in the paper's single-system deployment.

use std::cell::RefCell;
use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes};

use wsmed_store::ValueBatch;
use wsmed_store::{Column, ColumnData, Record, StrColumn, StrHeap, Tuple, Validity, Value};

use crate::plan::{AdaptiveConfig, ArgExpr, PlanFunction, PlanOp, PruneSet};
use crate::{CoreError, CoreResult};

// ---------------------------------------------------------------- encode --
//
// Every encoder writes into one per-thread buffer and copies the finished
// frame out once, at its exact size: a frame costs one allocation, and the
// buffer keeps its capacity, so after the first frames it never regrows.

thread_local! {
    static FRAME_SCRATCH: RefCell<Vec<u8>> = RefCell::new(Vec::with_capacity(256));
}

/// The capacity the per-thread buffer keeps between frames; the buffer of
/// a larger frame is shrunk back once the frame is copied out.
const SCRATCH_KEEP: usize = 64 * 1024;

/// Runs `write` on this thread's emptied frame buffer and returns what it
/// wrote as one exact-size [`Bytes`].
fn encode_with(write: impl FnOnce(&mut Vec<u8>)) -> Bytes {
    FRAME_SCRATCH.with(|cell| {
        let buf = &mut *cell.borrow_mut();
        buf.clear();
        write(buf);
        let frame = Bytes::copy_from_slice(buf);
        if buf.capacity() > SCRATCH_KEEP {
            buf.clear();
            buf.shrink_to(SCRATCH_KEEP);
        }
        frame
    })
}

/// Serializes a plan function for shipping.
pub fn encode_plan_function(pf: &PlanFunction) -> Bytes {
    encode_with(|buf| put_plan_function(buf, pf))
}

/// Serializes a tuple for shipping as a parameter or result message.
pub fn encode_tuple(tuple: &Tuple) -> Bytes {
    encode_with(|buf| put_tuple(buf, tuple))
}

/// Serializes a value slice with the same layout as [`encode_tuple`] —
/// lets callers build structural keys without cloning values into a
/// `Tuple` first.
pub(crate) fn encode_value_slice(values: &[Value]) -> Bytes {
    encode_with(|buf| {
        buf.put_u32_le(values.len() as u32);
        for v in values {
            put_value(buf, v);
        }
    })
}

/// Exact number of bytes [`put_tuple`] writes for `tuple`.
fn tuple_encoded_size(tuple: &Tuple) -> usize {
    4 + tuple.values().iter().map(value_encoded_size).sum::<usize>()
}

/// Exact number of bytes [`put_value`] writes for `value`.
fn value_encoded_size(value: &Value) -> usize {
    match value {
        Value::Null => 1,
        Value::Str(s) => 1 + 4 + s.len(),
        Value::Real(_) | Value::Int(_) => 1 + 8,
        Value::Bool(_) => 1 + 1,
        Value::Record(record) => {
            1 + 4
                + record
                    .iter()
                    .map(|(name, v)| 4 + name.len() + value_encoded_size(v))
                    .sum::<usize>()
        }
        Value::Sequence(items) | Value::Bag(items) => {
            1 + 4 + items.iter().map(value_encoded_size).sum::<usize>()
        }
    }
}

// ---------------------------------------------------------- message frames --
//
// Message frames carry a one-byte kind prefix. The Call / ResultBatch
// frames between query processes are always row frames; the columnar
// frame is a codec of its own ([`encode_columnar_message`]).
//
// A row frame (kind 0) is a varint tuple count, then per tuple a varint
// byte length followed by that tuple's [`encode_tuple`] encoding. The
// per-tuple length prefix lets a child slice each parameter's encoding out
// of a Call frame as its memo key without re-encoding it.
//
// A columnar frame (kind 1):
//
//   varint row_count, varint col_count, then per column:
//     u8 tag (0=Null 1=Int 2=Real 3=Bool 4=Str 5=Other)
//     u8 has_validity, then ceil(rows/8) mask bytes if 1
//     data — Int/Real: rows × 8 LE; Bool: ceil(rows/8) packed bits;
//            Str: rows × u32 LE lengths, u32 heap_len, heap bytes;
//            Other: rows × tagged values (row format per value)
//
// Decode of a Str column borrows the heap straight out of the received
// frame (`copy_to_bytes` shares the allocation) — zero per-value copies.

/// Message frame kind: a row frame follows.
const KIND_ROWS: u8 = 0;
/// Message frame kind: a columnar frame follows.
const KIND_COLUMNAR: u8 = 1;

/// A decoded message frame ([`decode_message`]).
#[derive(Debug, Clone)]
pub enum MessageBatch {
    /// The tuples of a row frame.
    Rows(Vec<Tuple>),
    /// A columnar batch whose string heaps borrow the frame.
    Columnar(ValueBatch),
}

impl MessageBatch {
    /// Number of tuples carried.
    pub fn len(&self) -> usize {
        match self {
            MessageBatch::Rows(rows) => rows.len(),
            MessageBatch::Columnar(batch) => batch.len(),
        }
    }

    /// Whether the frame carries no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every tuple as a row (materializes a columnar batch).
    pub fn into_tuples(self) -> CoreResult<Vec<Tuple>> {
        match self {
            MessageBatch::Rows(rows) => Ok(rows),
            MessageBatch::Columnar(batch) => Ok(batch.to_tuples()),
        }
    }
}

/// Builds a row message frame from tuples already encoded one by one
/// ([`encode_tuple`]).
pub fn encode_rows_message<'a, I>(encoded: I) -> Bytes
where
    I: IntoIterator<Item = &'a Bytes>,
    I::IntoIter: ExactSizeIterator,
{
    let parts = encoded.into_iter();
    encode_row_frame(parts.len(), |buf| {
        for part in parts {
            put_varint(buf, part.len() as u64);
            buf.put_slice(part);
        }
    })
}

/// Encodes tuples as a row message frame, each written once, straight
/// into the frame. The same bytes as [`encode_rows_message`] over their
/// [`encode_tuple`] encodings.
pub(crate) fn encode_rows<'a, I>(tuples: I) -> Bytes
where
    I: IntoIterator<Item = &'a Tuple>,
    I::IntoIter: ExactSizeIterator,
{
    let tuples = tuples.into_iter();
    encode_row_frame(tuples.len(), |buf| {
        for tuple in tuples {
            put_row_entry(buf, tuple);
        }
    })
}

/// A row frame of `count` entries, which `put_entries` appends.
fn encode_row_frame(count: usize, put_entries: impl FnOnce(&mut Vec<u8>)) -> Bytes {
    encode_with(|buf| {
        buf.put_u8(KIND_ROWS);
        put_varint(buf, count as u64);
        put_entries(buf);
    })
}

/// Appends one row-frame entry: the tuple's encoded length, then its
/// encoding.
fn put_row_entry(buf: &mut Vec<u8>, tuple: &Tuple) {
    put_varint(buf, tuple_encoded_size(tuple) as u64);
    put_tuple(buf, tuple);
}

/// A row message frame filled one tuple at a time: the entries accumulate
/// in a body that keeps its capacity from frame to frame.
#[derive(Debug, Default)]
pub(crate) struct RowFrame {
    body: Vec<u8>,
    count: usize,
}

impl RowFrame {
    /// Appends one tuple's entry.
    pub(crate) fn push(&mut self, tuple: &Tuple) {
        put_row_entry(&mut self.body, tuple);
        self.count += 1;
    }

    /// Tuples appended since the last [`RowFrame::take`].
    pub(crate) fn len(&self) -> usize {
        self.count
    }

    /// The message frame of every appended tuple; leaves the frame empty.
    pub(crate) fn take(&mut self) -> Bytes {
        let frame = encode_row_frame(self.count, |buf| buf.put_slice(&self.body));
        self.clear();
        frame
    }

    /// Drops every appended tuple, keeping the body's capacity.
    pub(crate) fn clear(&mut self) {
        self.body.clear();
        self.count = 0;
    }
}

/// Builds a columnar message frame from a batch.
fn encode_columnar_batch(batch: &ValueBatch) -> Bytes {
    encode_with(|buf| {
        buf.put_u8(KIND_COLUMNAR);
        put_columnar(buf, batch);
    })
}

/// Encodes tuples as a columnar message frame, falling back to the row
/// format when the batch cannot be columnarized (non-uniform arity).
pub fn encode_columnar_message(tuples: &[Tuple]) -> Bytes {
    match ValueBatch::from_tuples(tuples) {
        Some(batch) => encode_columnar_batch(&batch),
        None => encode_rows(tuples),
    }
}

/// Decodes a kind-prefixed message frame produced by
/// [`encode_rows_message`] / [`encode_columnar_message`].
pub fn decode_message(mut frame: Bytes) -> CoreResult<MessageBatch> {
    match get_u8(&mut frame)? {
        KIND_ROWS => {
            let mut rows = Vec::new();
            get_rows_onto(frame, &mut rows)?;
            Ok(MessageBatch::Rows(rows))
        }
        KIND_COLUMNAR => Ok(MessageBatch::Columnar(get_columnar_frame(frame)?)),
        kind => Err(unknown_kind(kind)),
    }
}

/// Decodes a row message frame straight onto `out` and returns how many
/// rows it appended. Query processes exchange row frames only: a columnar
/// frame is refused. On error `out` is left as it was.
pub(crate) fn decode_message_onto(mut frame: Bytes, out: &mut Vec<Tuple>) -> CoreResult<usize> {
    expect_rows_kind(&mut frame)?;
    let before = out.len();
    match get_rows_onto(frame, out) {
        Ok(()) => Ok(out.len() - before),
        Err(e) => {
            out.truncate(before);
            Err(e)
        }
    }
}

/// Decodes a Call row frame for a child that memoizes per parameter: every
/// parameter's own encoding, a slice of the frame that keys its memo entry.
/// A columnar frame is refused.
pub(crate) fn decode_keyed_params(mut frame: Bytes) -> CoreResult<Vec<Bytes>> {
    expect_rows_kind(&mut frame)?;
    split_row_frame(frame)
}

/// Reads a frame's kind byte and refuses anything but a row frame.
fn expect_rows_kind(frame: &mut Bytes) -> CoreResult<()> {
    match get_u8(frame)? {
        KIND_ROWS => Ok(()),
        KIND_COLUMNAR => Err(CoreError::Wire(
            "columnar frame between query processes".into(),
        )),
        kind => Err(unknown_kind(kind)),
    }
}

fn unknown_kind(kind: u8) -> CoreError {
    CoreError::Wire(format!("unknown message kind {kind}"))
}

fn put_validity(buf: &mut Vec<u8>, validity: Option<&Validity>) {
    match validity {
        Some(mask) => {
            buf.put_u8(1);
            buf.put_slice(mask.as_bytes());
        }
        None => buf.put_u8(0),
    }
}

fn put_columnar(buf: &mut Vec<u8>, batch: &ValueBatch) {
    put_varint(buf, batch.len() as u64);
    put_varint(buf, batch.arity() as u64);
    for col in batch.columns() {
        match col.data() {
            ColumnData::Null => {
                buf.put_u8(0);
                buf.put_u8(0); // all-null columns carry no mask
            }
            ColumnData::Int(v) => {
                buf.put_u8(1);
                put_validity(buf, col.validity());
                for &x in v {
                    buf.put_i64_le(x);
                }
            }
            ColumnData::Real(v) => {
                buf.put_u8(2);
                put_validity(buf, col.validity());
                for &x in v {
                    buf.put_f64_le(x);
                }
            }
            ColumnData::Bool(v) => {
                buf.put_u8(3);
                put_validity(buf, col.validity());
                let packed = buf.len();
                buf.resize(packed + v.len().div_ceil(8), 0);
                for (i, &b) in v.iter().enumerate() {
                    if b {
                        buf[packed + i / 8] |= 1 << (i % 8);
                    }
                }
            }
            ColumnData::Str(scol) => {
                buf.put_u8(4);
                put_validity(buf, col.validity());
                let offsets = scol.offsets();
                for w in offsets.windows(2) {
                    buf.put_u32_le(w[1] - w[0]);
                }
                let heap = scol.heap().as_bytes();
                buf.put_u32_le(heap.len() as u32);
                buf.put_slice(heap);
            }
            ColumnData::Other(v) => {
                buf.put_u8(5);
                put_validity(buf, col.validity());
                for value in v {
                    put_value(buf, value);
                }
            }
        }
    }
}

fn get_validity(buf: &mut Bytes, rows: usize) -> CoreResult<Option<Validity>> {
    match get_u8(buf)? {
        0 => Ok(None),
        1 => {
            let n = rows.div_ceil(8);
            need(buf, n)?;
            let raw = buf.copy_to_bytes(n).to_vec();
            Validity::from_bytes(raw, rows)
                .map(Some)
                .ok_or_else(|| CoreError::Wire("bad validity mask".into()))
        }
        tag => Err(CoreError::Wire(format!("bad validity tag {tag}"))),
    }
}

/// Decodes a columnar frame's body (after its kind byte), which must end
/// the frame.
fn get_columnar_frame(mut frame: Bytes) -> CoreResult<ValueBatch> {
    let batch = get_columnar(&mut frame)?;
    if frame.has_remaining() {
        return Err(CoreError::Wire(format!(
            "{} trailing bytes after columnar frame",
            frame.remaining()
        )));
    }
    Ok(batch)
}

/// The most rows a columnar frame may claim when no column carries bytes
/// per row (it has no columns, or only `Null` ones), so that its length does
/// not bound them: far above any frame the mediator sends, far below what
/// materializing would exhaust memory with.
const MAX_BODILESS_ROWS: usize = 1 << 20;

fn get_columnar(buf: &mut Bytes) -> CoreResult<ValueBatch> {
    let rows = get_varint(buf)?;
    let cols = get_varint(buf)?;
    if rows > u32::MAX as u64 || cols > u32::MAX as u64 {
        return Err(CoreError::Wire(format!(
            "absurd columnar shape {rows}×{cols}"
        )));
    }
    let rows = rows as usize;
    let mut columns = Vec::with_capacity(capacity_for(cols as usize, buf));
    let mut bodiless = true;
    for _ in 0..cols {
        let tag = get_u8(buf)?;
        if tag == 0 {
            match get_u8(buf)? {
                0 => columns.push(Column::new(ColumnData::Null, None)),
                other => {
                    return Err(CoreError::Wire(format!(
                        "null column with validity tag {other}"
                    )))
                }
            }
            continue;
        }
        bodiless = false;
        let validity = get_validity(buf, rows)?;
        let data = match tag {
            1 => {
                need(buf, rows * 8)?;
                let mut v = Vec::with_capacity(rows);
                for _ in 0..rows {
                    v.push(buf.get_i64_le());
                }
                ColumnData::Int(v)
            }
            2 => {
                need(buf, rows * 8)?;
                let mut v = Vec::with_capacity(rows);
                for _ in 0..rows {
                    v.push(buf.get_f64_le());
                }
                ColumnData::Real(v)
            }
            3 => {
                let n = rows.div_ceil(8);
                need(buf, n)?;
                let packed = buf.copy_to_bytes(n);
                ColumnData::Bool(
                    (0..rows)
                        .map(|i| packed[i / 8] & (1 << (i % 8)) != 0)
                        .collect(),
                )
            }
            4 => {
                need(buf, rows * 4)?;
                let mut offsets = Vec::with_capacity(rows + 1);
                offsets.push(0u32);
                let mut total = 0u64;
                for _ in 0..rows {
                    total += u64::from(buf.get_u32_le());
                    if total > u64::from(u32::MAX) {
                        return Err(CoreError::Wire("string heap overflows u32".into()));
                    }
                    offsets.push(total as u32);
                }
                let heap_len = get_u32(buf)?;
                if heap_len as u64 != total {
                    return Err(CoreError::Wire(format!(
                        "heap length {heap_len} != summed lengths {total}"
                    )));
                }
                need(buf, heap_len)?;
                // Zero-copy: the heap is a refcounted view of the frame.
                let heap = buf.copy_to_bytes(heap_len);
                let col = StrColumn::new(offsets, StrHeap::Shared(heap))
                    .ok_or_else(|| CoreError::Wire("invalid UTF-8 in string column".into()))?;
                ColumnData::Str(col)
            }
            5 => {
                let mut v = Vec::with_capacity(capacity_for(rows, buf));
                for _ in 0..rows {
                    v.push(get_value(buf, 0)?);
                }
                ColumnData::Other(v)
            }
            other => return Err(CoreError::Wire(format!("unknown column tag {other}"))),
        };
        columns.push(Column::new(data, validity));
    }
    if bodiless && rows > MAX_BODILESS_ROWS {
        return Err(CoreError::Wire(format!(
            "{rows} rows claimed by a columnar frame without row data"
        )));
    }
    ValueBatch::from_parts(rows, columns)
        .ok_or_else(|| CoreError::Wire("columnar frame shape mismatch".into()))
}

/// LEB128 unsigned varint (7 bits per byte, high bit = continuation).
fn put_varint(buf: &mut Vec<u8>, mut n: u64) {
    loop {
        let byte = (n & 0x7f) as u8;
        n >>= 7;
        if n == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn put_value(buf: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Null => buf.put_u8(0),
        Value::Str(s) => {
            buf.put_u8(1);
            put_str(buf, s);
        }
        Value::Real(r) => {
            buf.put_u8(2);
            buf.put_f64_le(*r);
        }
        Value::Int(i) => {
            buf.put_u8(3);
            buf.put_i64_le(*i);
        }
        Value::Bool(b) => {
            buf.put_u8(4);
            buf.put_u8(u8::from(*b));
        }
        Value::Record(record) => {
            buf.put_u8(5);
            buf.put_u32_le(record.len() as u32);
            for (name, v) in record.iter() {
                put_str(buf, name);
                put_value(buf, v);
            }
        }
        Value::Sequence(items) => {
            buf.put_u8(6);
            buf.put_u32_le(items.len() as u32);
            for v in items {
                put_value(buf, v);
            }
        }
        Value::Bag(items) => {
            buf.put_u8(7);
            buf.put_u32_le(items.len() as u32);
            for v in items {
                put_value(buf, v);
            }
        }
    }
}

fn put_tuple(buf: &mut Vec<u8>, tuple: &Tuple) {
    buf.put_u32_le(tuple.arity() as u32);
    for v in tuple.values() {
        put_value(buf, v);
    }
}

fn put_arg(buf: &mut Vec<u8>, arg: &ArgExpr) {
    match arg {
        ArgExpr::Col(i) => {
            buf.put_u8(0);
            buf.put_u32_le(*i as u32);
        }
        ArgExpr::Const(v) => {
            buf.put_u8(1);
            put_value(buf, v);
        }
    }
}

fn put_args(buf: &mut Vec<u8>, args: &[ArgExpr]) {
    buf.put_u32_le(args.len() as u32);
    for a in args {
        put_arg(buf, a);
    }
}

fn put_plan_op(buf: &mut Vec<u8>, op: &PlanOp) {
    match op {
        PlanOp::Unit => buf.put_u8(0),
        PlanOp::Param { arity } => {
            buf.put_u8(1);
            buf.put_u32_le(*arity as u32);
        }
        PlanOp::ApplyOwf {
            owf,
            args,
            output_arity,
            input,
        } => {
            buf.put_u8(2);
            put_str(buf, owf);
            put_args(buf, args);
            buf.put_u32_le(*output_arity as u32);
            put_plan_op(buf, input);
        }
        PlanOp::ApplyFunction {
            function,
            args,
            output_arity,
            input,
        } => {
            buf.put_u8(3);
            put_str(buf, function);
            put_args(buf, args);
            buf.put_u32_le(*output_arity as u32);
            put_plan_op(buf, input);
        }
        PlanOp::Extend { exprs, input } => {
            buf.put_u8(4);
            put_args(buf, exprs);
            put_plan_op(buf, input);
        }
        PlanOp::Project { columns, input } => {
            buf.put_u8(5);
            buf.put_u32_le(columns.len() as u32);
            for c in columns {
                buf.put_u32_le(*c as u32);
            }
            put_plan_op(buf, input);
        }
        PlanOp::FfApply { pf, fanout, input } => {
            buf.put_u8(6);
            put_plan_function(buf, pf);
            buf.put_u32_le(*fanout as u32);
            put_plan_op(buf, input);
        }
        PlanOp::Sort { keys, input } => {
            buf.put_u8(8);
            buf.put_u32_le(keys.len() as u32);
            for (col, desc) in keys {
                buf.put_u32_le(*col as u32);
                buf.put_u8(u8::from(*desc));
            }
            put_plan_op(buf, input);
        }
        PlanOp::Distinct { input } => {
            buf.put_u8(9);
            put_plan_op(buf, input);
        }
        PlanOp::Limit { count, input } => {
            buf.put_u8(10);
            buf.put_u32_le(*count as u32);
            put_plan_op(buf, input);
        }
        PlanOp::Count { input } => {
            buf.put_u8(11);
            put_plan_op(buf, input);
        }
        PlanOp::GroupBy {
            key_count,
            aggs,
            input,
        } => {
            buf.put_u8(12);
            buf.put_u32_le(*key_count as u32);
            buf.put_u32_le(aggs.len() as u32);
            for (func, arg) in aggs {
                buf.put_u8(agg_code(*func));
                match arg {
                    Some(col) => {
                        buf.put_u8(1);
                        buf.put_u32_le(*col as u32);
                    }
                    None => buf.put_u8(0),
                }
            }
            put_plan_op(buf, input);
        }
        PlanOp::AffApply { pf, config, input } => {
            buf.put_u8(7);
            put_plan_function(buf, pf);
            buf.put_u32_le(config.add_step as u32);
            buf.put_f64_le(config.threshold);
            buf.put_u8(u8::from(config.drop_enabled));
            buf.put_u32_le(config.init_fanout as u32);
            buf.put_u32_le(config.max_fanout as u32);
            match config.rearm_factor {
                Some(factor) => {
                    buf.put_u8(1);
                    buf.put_f64_le(factor);
                }
                None => buf.put_u8(0),
            }
            put_plan_op(buf, input);
        }
    }
}

fn put_plan_function(buf: &mut Vec<u8>, pf: &PlanFunction) {
    put_str(buf, &pf.name);
    buf.put_u32_le(pf.param_arity as u32);
    buf.put_u32_le(pf.output_arity as u32);
    put_plan_op(buf, &pf.body);
    match &pf.prune {
        None => buf.put_u8(0),
        Some(spec) => {
            buf.put_u8(1);
            put_str(buf, &spec.section_key);
            buf.put_u32_le(spec.drop_params.len() as u32);
            for param in spec.drop_params.iter() {
                buf.put_u32_le(param.len() as u32);
                buf.extend_from_slice(param);
            }
        }
    }
}

// ---------------------------------------------------------------- decode --

/// The deepest nesting of values, or of plan operators, a decoder follows.
/// The mediator's plans and values nest a few levels; a deeper frame is
/// corrupt or hostile, and following it would overflow the stack.
const MAX_DEPTH: usize = 128;

/// The depth one level below `depth`, or an error beyond [`MAX_DEPTH`].
fn nested(depth: usize) -> CoreResult<usize> {
    if depth < MAX_DEPTH {
        Ok(depth + 1)
    } else {
        Err(CoreError::Wire(format!(
            "nested deeper than {MAX_DEPTH} levels"
        )))
    }
}

/// Deserializes a plan function received from a parent process.
pub fn decode_plan_function(mut bytes: Bytes) -> CoreResult<PlanFunction> {
    let pf = get_plan_function(&mut bytes, 0)?;
    expect_end(&bytes, "plan function")?;
    Ok(pf)
}

/// Deserializes a tuple.
pub fn decode_tuple(mut bytes: Bytes) -> CoreResult<Tuple> {
    let t = get_tuple(&mut bytes)?;
    expect_end(&bytes, "tuple")?;
    Ok(t)
}

/// Decodes a row frame's body (after its kind byte) onto `out`.
fn get_rows_onto(mut frame: Bytes, out: &mut Vec<Tuple>) -> CoreResult<()> {
    let n = get_entry_count(&mut frame)?;
    out.reserve(n);
    for _ in 0..n {
        let mut entry = get_row_entry(&mut frame)?;
        out.push(get_tuple(&mut entry)?);
        expect_end(&entry, "row entry")?;
    }
    expect_end(&frame, "row frame")
}

/// Splits a row frame's body (after its kind byte) into the per-tuple
/// encodings it carries without decoding them — zero-copy slices of the
/// frame. Each equals what [`encode_tuple`] produced for that tuple, so the
/// slices key per-parameter memo lookups ([`crate::cache`]) byte for byte
/// like the parent's `encode_tuple` output.
fn split_row_frame(mut frame: Bytes) -> CoreResult<Vec<Bytes>> {
    let n = get_entry_count(&mut frame)?;
    let parts = (0..n)
        .map(|_| get_row_entry(&mut frame))
        .collect::<CoreResult<Vec<_>>>()?;
    expect_end(&frame, "row frame")?;
    Ok(parts)
}

/// A row frame's entry count; every entry takes at least a byte, so a
/// count beyond the bytes left is corrupt.
fn get_entry_count(buf: &mut Bytes) -> CoreResult<usize> {
    let n = get_varint(buf)?;
    if n > buf.remaining() as u64 {
        return Err(CoreError::Wire(format!(
            "{n} entries claimed in {} bytes",
            buf.remaining()
        )));
    }
    Ok(n as usize)
}

/// One length-prefixed row-frame entry, as a view of the frame.
fn get_row_entry(buf: &mut Bytes) -> CoreResult<Bytes> {
    let len = get_varint(buf)?;
    if len > buf.remaining() as u64 {
        return Err(CoreError::Wire(format!(
            "entry of {len} bytes in {} bytes",
            buf.remaining()
        )));
    }
    Ok(buf.copy_to_bytes(len as usize))
}

/// Fails unless `buf` was read to its end.
fn expect_end(buf: &Bytes, what: &str) -> CoreResult<()> {
    if buf.has_remaining() {
        Err(CoreError::Wire(format!(
            "{} trailing bytes after {what}",
            buf.remaining()
        )))
    } else {
        Ok(())
    }
}

/// The capacity to reserve for `n` items of a count prefix: each item
/// takes at least a byte, so no more than the bytes left.
fn capacity_for(n: usize, buf: &Bytes) -> usize {
    n.min(buf.remaining())
}

fn need(buf: &Bytes, n: usize) -> CoreResult<()> {
    if buf.remaining() < n {
        Err(CoreError::Wire(format!(
            "needed {n} bytes, have {}",
            buf.remaining()
        )))
    } else {
        Ok(())
    }
}

fn get_u8(buf: &mut Bytes) -> CoreResult<u8> {
    need(buf, 1)?;
    Ok(buf.get_u8())
}

fn get_varint(buf: &mut Bytes) -> CoreResult<u64> {
    let mut n = 0u64;
    for shift in (0..64).step_by(7) {
        let byte = get_u8(buf)?;
        n |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            // Reject non-canonical padding like 0x80 0x00.
            if byte == 0 && shift != 0 {
                return Err(CoreError::Wire("non-canonical varint".into()));
            }
            return Ok(n);
        }
    }
    Err(CoreError::Wire("varint longer than 10 bytes".into()))
}

fn get_u32(buf: &mut Bytes) -> CoreResult<usize> {
    need(buf, 4)?;
    Ok(buf.get_u32_le() as usize)
}

fn get_f64(buf: &mut Bytes) -> CoreResult<f64> {
    need(buf, 8)?;
    Ok(buf.get_f64_le())
}

/// Reads a length-prefixed UTF-8 string and hands it to `own`, borrowed
/// from the frame, so the owned form costs the one allocation `own` makes.
fn get_str_with<T>(buf: &mut Bytes, own: impl FnOnce(&str) -> T) -> CoreResult<T> {
    let len = get_u32(buf)?;
    need(buf, len)?;
    let s =
        std::str::from_utf8(&buf[..len]).map_err(|_| CoreError::Wire("invalid UTF-8".into()))?;
    let owned = own(s);
    buf.advance(len);
    Ok(owned)
}

fn get_str(buf: &mut Bytes) -> CoreResult<String> {
    get_str_with(buf, str::to_owned)
}

fn get_shared_str(buf: &mut Bytes) -> CoreResult<Arc<str>> {
    get_str_with(buf, |s| Arc::from(s))
}

fn get_value(buf: &mut Bytes, depth: usize) -> CoreResult<Value> {
    match get_u8(buf)? {
        0 => Ok(Value::Null),
        1 => Ok(Value::Str(get_shared_str(buf)?)),
        2 => Ok(Value::Real(get_f64(buf)?)),
        3 => {
            need(buf, 8)?;
            Ok(Value::Int(buf.get_i64_le()))
        }
        4 => Ok(Value::Bool(get_u8(buf)? != 0)),
        5 => {
            let depth = nested(depth)?;
            let n = get_u32(buf)?;
            let mut record = Record::new();
            for _ in 0..n {
                let name = get_shared_str(buf)?;
                let value = get_value(buf, depth)?;
                record.set(name, value);
            }
            Ok(Value::Record(record))
        }
        tag @ (6 | 7) => {
            let depth = nested(depth)?;
            let n = get_u32(buf)?;
            let mut items = Vec::with_capacity(capacity_for(n, buf));
            for _ in 0..n {
                items.push(get_value(buf, depth)?);
            }
            Ok(if tag == 6 {
                Value::Sequence(items)
            } else {
                Value::Bag(items)
            })
        }
        tag => Err(CoreError::Wire(format!("unknown value tag {tag}"))),
    }
}

fn get_tuple(buf: &mut Bytes) -> CoreResult<Tuple> {
    let n = get_u32(buf)?;
    let mut values = Vec::with_capacity(capacity_for(n, buf));
    for _ in 0..n {
        values.push(get_value(buf, 0)?);
    }
    Ok(Tuple::new(values))
}

fn get_arg(buf: &mut Bytes, depth: usize) -> CoreResult<ArgExpr> {
    match get_u8(buf)? {
        0 => Ok(ArgExpr::Col(get_u32(buf)?)),
        1 => Ok(ArgExpr::Const(get_value(buf, depth)?)),
        tag => Err(CoreError::Wire(format!("unknown arg tag {tag}"))),
    }
}

fn get_args(buf: &mut Bytes, depth: usize) -> CoreResult<Vec<ArgExpr>> {
    let n = get_u32(buf)?;
    let mut args = Vec::with_capacity(capacity_for(n, buf));
    for _ in 0..n {
        args.push(get_arg(buf, depth)?);
    }
    Ok(args)
}

/// Decodes an operator and, below it, its input chain. Each level's frame
/// holds only the operator: the fields of every kind are read by
/// functions that return before the recursion.
fn get_plan_op(buf: &mut Bytes, depth: usize) -> CoreResult<PlanOp> {
    let depth = nested(depth)?;
    let mut op = get_plan_op_head(buf, depth)?;
    if let Some(input) = op.input_mut() {
        // Into the placeholder's box: no second allocation.
        *input = get_plan_op(buf, depth)?;
    }
    Ok(op)
}

/// The placeholder an operator's input is decoded with, overwritten in
/// place once the input is decoded.
fn leaf() -> Box<PlanOp> {
    Box::new(PlanOp::Unit)
}

/// Decodes one operator, with a [`leaf`] placeholder for its input. The
/// operators with more than a field or two decode in functions of their
/// own, so this frame, which a nested plan function recurses through,
/// stays small.
fn get_plan_op_head(buf: &mut Bytes, depth: usize) -> CoreResult<PlanOp> {
    match get_u8(buf)? {
        0 => Ok(PlanOp::Unit),
        1 => Ok(PlanOp::Param {
            arity: get_u32(buf)?,
        }),
        2 => get_apply(buf, depth, true),
        3 => get_apply(buf, depth, false),
        4 => Ok(PlanOp::Extend {
            exprs: get_args(buf, depth)?,
            input: leaf(),
        }),
        5 => get_project(buf),
        6 => get_ff_apply(buf, depth),
        7 => get_aff_apply(buf, depth),
        8 => get_sort(buf),
        9 => Ok(PlanOp::Distinct { input: leaf() }),
        10 => Ok(PlanOp::Limit {
            count: get_u32(buf)?,
            input: leaf(),
        }),
        11 => Ok(PlanOp::Count { input: leaf() }),
        12 => get_group_by(buf),
        tag => Err(CoreError::Wire(format!("unknown plan-op tag {tag}"))),
    }
}

/// `ApplyOwf` (`owf`) or `ApplyFunction`.
fn get_apply(buf: &mut Bytes, depth: usize, owf: bool) -> CoreResult<PlanOp> {
    let name = get_str(buf)?;
    let args = get_args(buf, depth)?;
    let output_arity = get_u32(buf)?;
    Ok(if owf {
        PlanOp::ApplyOwf {
            owf: name,
            args,
            output_arity,
            input: leaf(),
        }
    } else {
        PlanOp::ApplyFunction {
            function: name,
            args,
            output_arity,
            input: leaf(),
        }
    })
}

fn get_project(buf: &mut Bytes) -> CoreResult<PlanOp> {
    let n = get_u32(buf)?;
    let mut columns = Vec::with_capacity(capacity_for(n, buf));
    for _ in 0..n {
        columns.push(get_u32(buf)?);
    }
    Ok(PlanOp::Project {
        columns,
        input: leaf(),
    })
}

fn get_ff_apply(buf: &mut Bytes, depth: usize) -> CoreResult<PlanOp> {
    let pf = get_plan_function(buf, depth)?;
    let fanout = get_u32(buf)?;
    Ok(PlanOp::FfApply {
        pf,
        fanout,
        input: leaf(),
    })
}

fn get_aff_apply(buf: &mut Bytes, depth: usize) -> CoreResult<PlanOp> {
    let pf = get_plan_function(buf, depth)?;
    let config = AdaptiveConfig {
        add_step: get_u32(buf)?,
        threshold: get_f64(buf)?,
        drop_enabled: get_u8(buf)? != 0,
        init_fanout: get_u32(buf)?,
        max_fanout: get_u32(buf)?,
        rearm_factor: match get_u8(buf)? {
            0 => None,
            _ => Some(get_f64(buf)?),
        },
    };
    Ok(PlanOp::AffApply {
        pf,
        config,
        input: leaf(),
    })
}

fn get_sort(buf: &mut Bytes) -> CoreResult<PlanOp> {
    let n = get_u32(buf)?;
    let mut keys = Vec::with_capacity(capacity_for(n, buf));
    for _ in 0..n {
        let col = get_u32(buf)?;
        let desc = get_u8(buf)? != 0;
        keys.push((col, desc));
    }
    Ok(PlanOp::Sort {
        keys,
        input: leaf(),
    })
}

fn get_group_by(buf: &mut Bytes) -> CoreResult<PlanOp> {
    let key_count = get_u32(buf)?;
    let n = get_u32(buf)?;
    let mut aggs = Vec::with_capacity(capacity_for(n, buf));
    for _ in 0..n {
        let func = agg_from_code(get_u8(buf)?)?;
        let arg = match get_u8(buf)? {
            0 => None,
            1 => Some(get_u32(buf)?),
            tag => return Err(CoreError::Wire(format!("bad agg-arg tag {tag}"))),
        };
        aggs.push((func, arg));
    }
    Ok(PlanOp::GroupBy {
        key_count,
        aggs,
        input: leaf(),
    })
}

fn agg_code(func: wsmed_sql::AggFunc) -> u8 {
    match func {
        wsmed_sql::AggFunc::Count => 0,
        wsmed_sql::AggFunc::Sum => 1,
        wsmed_sql::AggFunc::Min => 2,
        wsmed_sql::AggFunc::Max => 3,
        wsmed_sql::AggFunc::Avg => 4,
    }
}

fn agg_from_code(code: u8) -> CoreResult<wsmed_sql::AggFunc> {
    Ok(match code {
        0 => wsmed_sql::AggFunc::Count,
        1 => wsmed_sql::AggFunc::Sum,
        2 => wsmed_sql::AggFunc::Min,
        3 => wsmed_sql::AggFunc::Max,
        4 => wsmed_sql::AggFunc::Avg,
        other => return Err(CoreError::Wire(format!("unknown aggregate code {other}"))),
    })
}

fn get_plan_function(buf: &mut Bytes, depth: usize) -> CoreResult<PlanFunction> {
    let name = get_str(buf)?;
    let param_arity = get_u32(buf)?;
    let output_arity = get_u32(buf)?;
    let body = Box::new(get_plan_op(buf, depth)?);
    let prune = get_prune_spec(buf)?;
    Ok(PlanFunction {
        name,
        param_arity,
        body,
        output_arity,
        prune,
    })
}

fn get_prune_spec(buf: &mut Bytes) -> CoreResult<Option<crate::plan::PruneSpec>> {
    match get_u8(buf)? {
        0 => Ok(None),
        1 => {
            let section_key = get_str(buf)?;
            let n = get_u32(buf)?;
            let mut params = Vec::with_capacity(capacity_for(n, buf));
            for _ in 0..n {
                let len = get_u32(buf)?;
                need(buf, len)?;
                params.push(buf.copy_to_bytes(len));
            }
            let drop_params = PruneSet::from_sorted(params).ok_or_else(|| {
                CoreError::Wire("prune drop list is not strictly increasing".into())
            })?;
            Ok(Some(crate::plan::PruneSpec {
                section_key,
                drop_params,
            }))
        }
        tag => Err(CoreError::Wire(format!("bad prune-spec tag {tag}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_pf() -> PlanFunction {
        PlanFunction {
            name: "PF1".into(),
            param_arity: 1,
            output_arity: 2,
            body: Box::new(PlanOp::ApplyFunction {
                function: "concat".into(),
                args: vec![ArgExpr::Col(0), ArgExpr::Const(Value::str(", "))],
                output_arity: 1,
                input: Box::new(PlanOp::ApplyOwf {
                    owf: "GetPlacesWithin".into(),
                    args: vec![
                        ArgExpr::Const(Value::str("Atlanta")),
                        ArgExpr::Col(0),
                        ArgExpr::Const(Value::Real(15.0)),
                        ArgExpr::Const(Value::str("City")),
                    ],
                    output_arity: 3,
                    input: Box::new(PlanOp::Param { arity: 1 }),
                }),
            }),
            prune: None,
        }
    }

    #[test]
    fn plan_function_roundtrip() {
        let pf = sample_pf();
        let bytes = encode_plan_function(&pf);
        let back = decode_plan_function(bytes).unwrap();
        assert_eq!(back, pf);
    }

    #[test]
    fn plan_function_bytes_are_pinned() {
        // Every operator kind, a prune annotation and nested plan
        // functions: the shipped bytes (and so every memo namespace and
        // warm-pool key) must not move when the encoder's buffering does.
        let outer = PlanFunction {
            name: "PF0".into(),
            param_arity: 1,
            output_arity: 2,
            body: Box::new(PlanOp::AffApply {
                pf: sample_pf(),
                config: AdaptiveConfig {
                    add_step: 4,
                    threshold: 0.1,
                    drop_enabled: true,
                    init_fanout: 2,
                    max_fanout: 9,
                    rearm_factor: Some(0.5),
                },
                input: Box::new(PlanOp::Sort {
                    keys: vec![(1, true)],
                    input: Box::new(PlanOp::GroupBy {
                        key_count: 1,
                        aggs: vec![
                            (wsmed_sql::AggFunc::Sum, Some(1)),
                            (wsmed_sql::AggFunc::Count, None),
                        ],
                        input: Box::new(PlanOp::FfApply {
                            pf: sample_pf(),
                            fanout: 4,
                            input: Box::new(PlanOp::Param { arity: 1 }),
                        }),
                    }),
                }),
            }),
            prune: Some(crate::plan::PruneSpec {
                section_key: "a1b2".into(),
                drop_params: PruneSet::from_sorted(vec![encode_tuple(&Tuple::new(vec![
                    Value::str("GA"),
                ]))])
                .unwrap(),
            }),
        };
        let bytes = encode_plan_function(&outer);
        assert_eq!(
            crate::cache::pf_digest("PF0", &bytes),
            "pf:PF0:349:88faa5eec87b622b"
        );
        assert_eq!(decode_plan_function(bytes).unwrap(), outer);
    }

    #[test]
    fn prune_spec_roundtrip() {
        let mut pf = sample_pf();
        pf.prune = Some(crate::plan::PruneSpec {
            section_key: "a1b2c3d4e5f60718".into(),
            drop_params: PruneSet::from_sorted(vec![
                Bytes::new(), // empty params survive too
                encode_tuple(&Tuple::new(vec![Value::str("GA")])),
                encode_tuple(&Tuple::new(vec![Value::str("TX")])),
            ])
            .unwrap(),
        });
        let bytes = encode_plan_function(&pf);
        let back = decode_plan_function(bytes).unwrap();
        assert_eq!(back, pf);
        // An empty drop list is distinct from no annotation at all.
        pf.prune = Some(crate::plan::PruneSpec::default());
        let back = decode_plan_function(encode_plan_function(&pf)).unwrap();
        assert_eq!(back.prune, Some(crate::plan::PruneSpec::default()));
    }

    /// `sample_pf` framed with a prune spec whose drop list is `params`,
    /// written by hand in the order given.
    fn frame_with_drop_list(params: &[&[u8]]) -> Bytes {
        let mut raw = encode_plan_function(&sample_pf()).to_vec();
        assert_eq!(raw.pop(), Some(0)); // no prune spec …
        raw.put_u8(1); // … becomes one
        put_str(&mut raw, "k");
        raw.put_u32_le(params.len() as u32);
        for param in params {
            raw.put_u32_le(param.len() as u32);
            raw.put_slice(param);
        }
        Bytes::from(raw)
    }

    #[test]
    fn drop_lists_out_of_order_or_with_duplicates_are_rejected() {
        for bad in [
            &[&b"b"[..], b"a"][..],
            &[b"a", b"b", b"b"],
            &[b"", b""],
            &[b"ab", b"a"],
        ] {
            let err = decode_plan_function(frame_with_drop_list(bad)).unwrap_err();
            assert!(matches!(err, CoreError::Wire(_)), "{bad:?}: {err:?}");
        }
        let ordered = frame_with_drop_list(&[b"", b"a", b"ab", b"b"]);
        let pf = decode_plan_function(ordered.clone()).unwrap();
        let spec = pf.prune.as_ref().unwrap();
        assert_eq!(spec.drop_params.len(), 4);
        assert!(spec.drop_params.contains(b"ab") && !spec.drop_params.contains(b"aa"));
        assert_eq!(encode_plan_function(&pf), ordered);
    }

    #[test]
    fn nested_ff_roundtrip() {
        let inner = sample_pf();
        let outer = PlanFunction {
            name: "PF0".into(),
            param_arity: 1,
            output_arity: 2,
            body: Box::new(PlanOp::FfApply {
                pf: inner,
                fanout: 4,
                input: Box::new(PlanOp::Param { arity: 1 }),
            }),
            prune: None,
        };
        let back = decode_plan_function(encode_plan_function(&outer)).unwrap();
        assert_eq!(back, outer);
    }

    #[test]
    fn aff_roundtrip_preserves_config() {
        let pf = PlanFunction {
            name: "A".into(),
            param_arity: 0,
            output_arity: 0,
            body: Box::new(PlanOp::AffApply {
                pf: sample_pf(),
                config: AdaptiveConfig {
                    add_step: 4,
                    threshold: 0.1,
                    drop_enabled: true,
                    init_fanout: 2,
                    max_fanout: 9,
                    rearm_factor: Some(0.5),
                },
                input: Box::new(PlanOp::Unit),
            }),
            prune: None,
        };
        let back = decode_plan_function(encode_plan_function(&pf)).unwrap();
        assert_eq!(back, pf);
    }

    #[test]
    fn sort_distinct_limit_roundtrip() {
        let pf = PlanFunction {
            name: "T".into(),
            param_arity: 0,
            output_arity: 2,
            body: Box::new(PlanOp::Limit {
                count: 10,
                input: Box::new(PlanOp::Sort {
                    keys: vec![(1, true), (0, false)],
                    input: Box::new(PlanOp::Distinct {
                        input: Box::new(PlanOp::Unit),
                    }),
                }),
            }),
            prune: None,
        };
        let back = decode_plan_function(encode_plan_function(&pf)).unwrap();
        assert_eq!(back, pf);
    }

    #[test]
    fn truncated_bytes_error() {
        let bytes = encode_plan_function(&sample_pf());
        for cut in [0, 1, 5, bytes.len() / 2, bytes.len() - 1] {
            let truncated = bytes.slice(0..cut);
            assert!(
                decode_plan_function(truncated).is_err(),
                "cut at {cut} decoded successfully"
            );
        }
    }

    #[test]
    fn trailing_bytes_error() {
        let mut raw = encode_plan_function(&sample_pf()).to_vec();
        raw.push(0);
        assert!(decode_plan_function(Bytes::from(raw)).is_err());
    }

    #[test]
    fn garbage_tag_error() {
        let t = Tuple::new(vec![Value::Int(1)]);
        let mut raw = encode_tuple(&t).to_vec();
        raw[4] = 250; // value tag position
        assert!(decode_tuple(Bytes::from(raw)).is_err());
    }

    // ---- hostile frames --------------------------------------------------

    /// How deep the hostile inputs nest: far past [`MAX_DEPTH`], and deep
    /// enough to overflow a thread's stack if a decoder followed it.
    const BOMB_DEPTH: usize = 20_000;

    /// A value nesting `depth` one-item `Sequence` headers around a null.
    fn nested_sequences(buf: &mut Vec<u8>, depth: usize) {
        for _ in 0..depth {
            buf.put_u8(6);
            buf.put_u32_le(1);
        }
        buf.put_u8(0);
    }

    /// A one-value tuple whose value nests `depth` sequences.
    fn deep_tuple(depth: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.put_u32_le(1);
        nested_sequences(&mut buf, depth);
        buf
    }

    #[test]
    fn deep_tuples_fail_instead_of_overflowing_the_stack() {
        assert!(decode_tuple(Bytes::from(deep_tuple(BOMB_DEPTH))).is_err());
        // A row frame carrying the tuple.
        let entry = deep_tuple(BOMB_DEPTH);
        let mut frame = vec![KIND_ROWS];
        put_varint(&mut frame, 1);
        put_varint(&mut frame, entry.len() as u64);
        frame.extend_from_slice(&entry);
        assert!(decode_message(Bytes::from(frame)).is_err());
        // A columnar frame whose one `Other` column holds it.
        let mut frame = vec![KIND_COLUMNAR];
        put_varint(&mut frame, 1); // rows
        put_varint(&mut frame, 1); // columns
        frame.extend_from_slice(&[5, 0]); // Other, no validity mask
        nested_sequences(&mut frame, BOMB_DEPTH);
        assert!(decode_message(Bytes::from(frame)).is_err());
    }

    #[test]
    fn deep_plans_fail_instead_of_overflowing_the_stack() {
        let mut raw = Vec::new();
        put_str(&mut raw, "PF");
        raw.put_u32_le(0); // param arity
        raw.put_u32_le(0); // output arity
        raw.resize(raw.len() + BOMB_DEPTH, 9); // Distinct over Distinct …
        raw.put_u8(0); // … over Unit
        raw.put_u8(0); // no prune spec
        assert!(decode_plan_function(Bytes::from(raw)).is_err());
    }

    #[test]
    fn nesting_up_to_the_cap_decodes() {
        let mut body = PlanOp::Unit;
        for _ in 0..MAX_DEPTH - 1 {
            body = PlanOp::Distinct {
                input: Box::new(body),
            };
        }
        let pf = PlanFunction {
            name: "deep".into(),
            param_arity: 0,
            output_arity: 0,
            body: Box::new(body),
            prune: None,
        };
        assert_eq!(decode_plan_function(encode_plan_function(&pf)).unwrap(), pf);
        let mut value = Value::Null;
        for _ in 0..MAX_DEPTH {
            value = Value::Sequence(vec![value]);
        }
        let t = Tuple::new(vec![value]);
        assert_eq!(decode_tuple(encode_tuple(&t)).unwrap(), t);
    }

    #[test]
    fn counts_beyond_the_frame_fail() {
        // 16-byte frames that claim u32::MAX items.
        let mut tuple = Vec::new();
        tuple.put_u32_le(u32::MAX); // values
        tuple.extend_from_slice(&[0; 12]);
        assert!(decode_tuple(Bytes::from(tuple)).is_err());

        let mut rows = vec![KIND_ROWS];
        put_varint(&mut rows, u64::from(u32::MAX)); // tuples
        rows.resize(16, 0);
        assert!(decode_message(Bytes::from(rows)).is_err());

        let mut seq = Vec::new();
        seq.put_u32_le(1);
        seq.put_u8(6);
        seq.put_u32_le(u32::MAX); // sequence items
        seq.resize(16, 0);
        assert!(decode_tuple(Bytes::from(seq)).is_err());
    }

    #[test]
    fn columnar_frames_without_row_data_claim_bounded_rows() {
        // ≤ 16-byte frames that claim u32::MAX rows and carry no byte per
        // row: no column at all, and one `Null` column.
        for null_columns in [0u64, 1] {
            let mut frame = vec![KIND_COLUMNAR];
            put_varint(&mut frame, u64::from(u32::MAX)); // rows
            put_varint(&mut frame, null_columns);
            for _ in 0..null_columns {
                frame.extend_from_slice(&[0, 0]); // Null, no validity mask
            }
            assert!(frame.len() <= 16);
            assert!(decode_message(Bytes::from(frame)).is_err());
        }
        // What the mediator sends, a `columnar(64)` frame, still round-trips.
        let nulls = vec![Tuple::new(vec![Value::Null]); 64];
        let frame = encode_columnar_message(&nulls);
        let decoded = decode_message(frame).unwrap();
        assert!(matches!(decoded, MessageBatch::Columnar(_)));
        assert_eq!(decoded.into_tuples().unwrap(), nulls);
    }

    // ---- message frames --------------------------------------------------

    fn sample_batch() -> Vec<Tuple> {
        vec![
            Tuple::new(vec![Value::Int(1), Value::str("Atlanta")]),
            Tuple::new(vec![]),
            Tuple::new(vec![Value::Real(15.0), Value::Null, Value::Bool(true)]),
        ]
    }

    fn decoded_rows(frame: Bytes) -> Vec<Tuple> {
        match decode_message(frame).unwrap() {
            MessageBatch::Rows(rows) => rows,
            MessageBatch::Columnar(_) => panic!("expected a row frame"),
        }
    }

    #[test]
    fn rows_message_roundtrip() {
        let tuples = sample_batch();
        assert_eq!(decoded_rows(encode_rows(&tuples)), tuples);
        assert!(decoded_rows(encode_rows(&[])).is_empty());
    }

    #[test]
    fn rows_message_from_encoded_parts_matches_direct_encoding() {
        let tuples = sample_batch();
        let parts: Vec<Bytes> = tuples.iter().map(encode_tuple).collect();
        assert_eq!(encode_rows_message(&parts), encode_rows(&tuples));
        let mut frame = RowFrame::default();
        for round in 0..2 {
            for t in &tuples {
                frame.push(t);
            }
            assert_eq!(frame.len(), tuples.len());
            assert_eq!(frame.take(), encode_rows(&tuples), "round {round}");
            assert_eq!(frame.len(), 0);
        }
    }

    #[test]
    fn decode_onto_appends_rows_and_keeps_them_on_error() {
        let tuples = sample_batch();
        let mut out = vec![Tuple::empty()];
        assert_eq!(
            decode_message_onto(encode_rows(&tuples), &mut out).unwrap(),
            3
        );
        assert_eq!(out.len(), 4);
        assert_eq!(&out[1..], &tuples[..]);
        // A frame that fails half-way leaves what was there.
        let mut raw = encode_rows(&tuples).to_vec();
        raw.truncate(raw.len() - 1);
        assert!(decode_message_onto(Bytes::from(raw), &mut out).is_err());
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn keyed_params_are_per_tuple_encodings() {
        let tuples = sample_batch();
        let parts = decode_keyed_params(encode_rows(&tuples)).unwrap();
        assert_eq!(parts.len(), tuples.len());
        for (part, t) in parts.iter().zip(&tuples) {
            assert_eq!(part, &encode_tuple(t));
        }
    }

    #[test]
    fn process_decoders_refuse_columnar_frames() {
        let columnar = encode_columnar_message(&columnar_batch());
        assert_eq!(columnar[0], KIND_COLUMNAR);
        let mut out = sample_batch();
        let err = decode_message_onto(columnar.clone(), &mut out).unwrap_err();
        assert!(matches!(err, CoreError::Wire(_)), "{err:?}");
        assert_eq!(
            out,
            sample_batch(),
            "a refused frame leaves `out` as it was"
        );
        let err = decode_keyed_params(columnar.clone()).unwrap_err();
        assert!(matches!(err, CoreError::Wire(_)), "{err:?}");
        // The library decoder still reads both kinds.
        assert_eq!(decode_message(columnar).unwrap().len(), 3);
    }

    #[test]
    fn rows_message_truncation_errors() {
        let frame = encode_rows(&sample_batch());
        for cut in 0..frame.len() {
            assert!(
                decode_message(frame.slice(0..cut)).is_err(),
                "cut at {cut} decoded successfully"
            );
            assert!(decode_keyed_params(frame.slice(0..cut)).is_err());
        }
    }

    #[test]
    fn rows_message_trailing_and_garbage_errors() {
        let mut raw = encode_rows(&sample_batch()).to_vec();
        raw.push(0);
        assert!(decode_message(Bytes::from(raw.clone())).is_err());
        raw.pop();
        raw[1] = 0xFF; // claim a huge continuation-heavy count
        for _ in 0..10 {
            raw.insert(2, 0xFF);
        }
        assert!(decode_message(Bytes::from(raw)).is_err());
    }

    #[test]
    fn rows_message_entry_length_mismatch_errors() {
        // A per-tuple length that overclaims into the next entry must fail
        // the entry's trailing-bytes check, not silently misparse.
        let mut raw = encode_rows(&sample_batch()).to_vec();
        raw[2] += 1; // first entry's varint length (kind and count are 1 byte each)
        raw.push(0); // keep the frame long enough
        assert!(decode_message(Bytes::from(raw)).is_err());
    }

    // ---- columnar frames -------------------------------------------------

    fn columnar_batch() -> Vec<Tuple> {
        vec![
            Tuple::new(vec![
                Value::Int(1),
                Value::str("Atlanta"),
                Value::Real(1.5),
                Value::Bool(true),
                Value::Null,
            ]),
            Tuple::new(vec![
                Value::Int(2),
                Value::Null,
                Value::Real(f64::NAN),
                Value::Null,
                Value::Sequence(vec![Value::Int(9), Value::str("x")]),
            ]),
            Tuple::new(vec![
                Value::Int(3),
                Value::str("Decatur"),
                Value::Real(-0.0),
                Value::Bool(false),
                Value::str("mixed"),
            ]),
        ]
    }

    fn assert_rows_eq(a: &[Tuple], b: &[Tuple]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.total_cmp(y), std::cmp::Ordering::Equal, "{x} vs {y}");
        }
    }

    #[test]
    fn columnar_message_roundtrip() {
        let tuples = columnar_batch();
        let frame = encode_columnar_message(&tuples);
        let MessageBatch::Columnar(batch) = decode_message(frame).unwrap() else {
            panic!("uniform batch must ship columnar");
        };
        assert_rows_eq(&batch.to_tuples(), &tuples);
        // Empty batches round-trip too.
        let empty = decode_message(encode_columnar_message(&[])).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn columnar_decode_borrows_frame_heap() {
        let tuples = columnar_batch();
        let frame = encode_columnar_message(&tuples);
        let frame_range = frame.as_ptr_range();
        let MessageBatch::Columnar(batch) = decode_message(frame.clone()).unwrap() else {
            panic!("expected columnar");
        };
        let ColumnData::Str(col) = batch.column(1).data() else {
            panic!("expected str column");
        };
        assert!(col.heap().is_shared(), "heap must borrow the frame");
        let heap = col.heap().as_bytes().as_ptr_range();
        assert!(
            frame_range.start <= heap.start && heap.end <= frame_range.end,
            "heap bytes must live inside the received frame"
        );
    }

    #[test]
    fn non_uniform_batch_falls_back_to_rows() {
        let tuples = sample_batch(); // arities 2, 0, 3
        let frame = encode_columnar_message(&tuples);
        assert_eq!(frame, encode_rows(&tuples));
        assert_eq!(decoded_rows(frame), tuples);
    }

    #[test]
    fn columnar_frame_rejects_corruption() {
        let frame = encode_columnar_message(&columnar_batch());
        for cut in 0..frame.len() {
            assert!(
                decode_message(frame.slice(0..cut)).is_err(),
                "cut at {cut} decoded successfully"
            );
        }
        let mut raw = frame.to_vec();
        raw.push(0);
        assert!(decode_message(Bytes::from(raw)).is_err(), "trailing bytes");
        let mut raw = frame.to_vec();
        raw[0] = 9;
        assert!(decode_message(Bytes::from(raw)).is_err(), "unknown kind");
    }

    // ---- the encoders before the per-thread frame buffer ------------------

    /// The encoders as they were when every frame grew a `BytesMut` and
    /// froze it: the oracle the buffered encoders must match byte for byte.
    mod grown {
        use bytes::{BufMut, Bytes, BytesMut};
        use wsmed_store::{ColumnData, Tuple, Validity, Value, ValueBatch};

        fn put_varint(buf: &mut BytesMut, mut n: u64) {
            loop {
                let byte = (n & 0x7f) as u8;
                n >>= 7;
                if n == 0 {
                    buf.put_u8(byte);
                    return;
                }
                buf.put_u8(byte | 0x80);
            }
        }

        fn put_str(buf: &mut BytesMut, s: &str) {
            buf.put_u32_le(s.len() as u32);
            buf.put_slice(s.as_bytes());
        }

        fn put_value(buf: &mut BytesMut, value: &Value) {
            match value {
                Value::Null => buf.put_u8(0),
                Value::Str(s) => {
                    buf.put_u8(1);
                    put_str(buf, s);
                }
                Value::Real(r) => {
                    buf.put_u8(2);
                    buf.put_f64_le(*r);
                }
                Value::Int(i) => {
                    buf.put_u8(3);
                    buf.put_i64_le(*i);
                }
                Value::Bool(b) => {
                    buf.put_u8(4);
                    buf.put_u8(u8::from(*b));
                }
                Value::Record(record) => {
                    buf.put_u8(5);
                    buf.put_u32_le(record.len() as u32);
                    for (name, v) in record.iter() {
                        put_str(buf, name);
                        put_value(buf, v);
                    }
                }
                Value::Sequence(items) => {
                    buf.put_u8(6);
                    buf.put_u32_le(items.len() as u32);
                    for v in items {
                        put_value(buf, v);
                    }
                }
                Value::Bag(items) => {
                    buf.put_u8(7);
                    buf.put_u32_le(items.len() as u32);
                    for v in items {
                        put_value(buf, v);
                    }
                }
            }
        }

        pub fn encode_tuple(tuple: &Tuple) -> Bytes {
            let mut buf = BytesMut::with_capacity(64);
            buf.put_u32_le(tuple.arity() as u32);
            for v in tuple.values() {
                put_value(&mut buf, v);
            }
            buf.freeze()
        }

        pub fn encode_rows_message(encoded: &[Bytes]) -> Bytes {
            let mut buf = BytesMut::with_capacity(8);
            buf.put_u8(0);
            put_varint(&mut buf, encoded.len() as u64);
            for part in encoded {
                put_varint(&mut buf, part.len() as u64);
                buf.put_slice(part);
            }
            buf.freeze()
        }

        fn put_validity(buf: &mut BytesMut, validity: Option<&Validity>) {
            match validity {
                Some(mask) => {
                    buf.put_u8(1);
                    buf.put_slice(mask.as_bytes());
                }
                None => buf.put_u8(0),
            }
        }

        pub fn encode_columnar_message(tuples: &[Tuple]) -> Bytes {
            let Some(batch) = ValueBatch::from_tuples(tuples) else {
                let parts: Vec<Bytes> = tuples.iter().map(encode_tuple).collect();
                return encode_rows_message(&parts);
            };
            let mut buf = BytesMut::with_capacity(64 + 16 * batch.len());
            buf.put_u8(1);
            put_varint(&mut buf, batch.len() as u64);
            put_varint(&mut buf, batch.arity() as u64);
            for col in batch.columns() {
                match col.data() {
                    ColumnData::Null => {
                        buf.put_u8(0);
                        buf.put_u8(0);
                    }
                    ColumnData::Int(v) => {
                        buf.put_u8(1);
                        put_validity(&mut buf, col.validity());
                        for &x in v {
                            buf.put_i64_le(x);
                        }
                    }
                    ColumnData::Real(v) => {
                        buf.put_u8(2);
                        put_validity(&mut buf, col.validity());
                        for &x in v {
                            buf.put_f64_le(x);
                        }
                    }
                    ColumnData::Bool(v) => {
                        buf.put_u8(3);
                        put_validity(&mut buf, col.validity());
                        let mut packed = vec![0u8; v.len().div_ceil(8)];
                        for (i, &b) in v.iter().enumerate() {
                            if b {
                                packed[i / 8] |= 1 << (i % 8);
                            }
                        }
                        buf.put_slice(&packed);
                    }
                    ColumnData::Str(scol) => {
                        buf.put_u8(4);
                        put_validity(&mut buf, col.validity());
                        for w in scol.offsets().windows(2) {
                            buf.put_u32_le(w[1] - w[0]);
                        }
                        let heap = scol.heap().as_bytes();
                        buf.put_u32_le(heap.len() as u32);
                        buf.put_slice(heap);
                    }
                    ColumnData::Other(v) => {
                        buf.put_u8(5);
                        put_validity(&mut buf, col.validity());
                        for value in v {
                            put_value(&mut buf, value);
                        }
                    }
                }
            }
            buf.freeze()
        }
    }

    // ---- property tests --------------------------------------------------

    fn value_strategy() -> impl Strategy<Value = Value> {
        let leaf = prop_oneof![
            Just(Value::Null),
            "[ -~]{0,24}".prop_map(Value::from),
            "[a-zé€😀 ]{0,12}".prop_map(Value::from),
            any::<f64>().prop_map(Value::Real),
            any::<i64>().prop_map(Value::Int),
            any::<bool>().prop_map(Value::Bool),
        ];
        leaf.prop_recursive(3, 24, 4, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::Sequence),
                proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::Bag),
                proptest::collection::vec(("[a-zß]{1,8}", inner), 0..4).prop_map(|fields| {
                    let mut r = Record::new();
                    for (k, v) in fields {
                        r.set(k, v);
                    }
                    Value::Record(r)
                }),
            ]
        })
    }

    proptest! {
        #[test]
        fn prop_tuple_roundtrip(values in proptest::collection::vec(value_strategy(), 0..6)) {
            let t = Tuple::new(values);
            let back = decode_tuple(encode_tuple(&t)).unwrap();
            // NaN != NaN under PartialEq; compare via total ordering.
            prop_assert_eq!(back.total_cmp(&t), std::cmp::Ordering::Equal);
        }

        #[test]
        fn prop_decoder_never_panics(raw in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = decode_plan_function(Bytes::from(raw.clone()));
            let _ = decode_tuple(Bytes::from(raw.clone()));
            let _ = decode_message(Bytes::from(raw.clone()));
            let _ = decode_keyed_params(Bytes::from(raw.clone()));
            // Exercise the row and columnar decoders directly too.
            for kind in [KIND_ROWS, KIND_COLUMNAR] {
                let mut framed = vec![kind];
                framed.extend_from_slice(&raw);
                let _ = decode_message(Bytes::from(framed));
            }
        }

        #[test]
        fn prop_buffered_encoders_write_the_grown_bytes(
            batch in proptest::collection::vec(
                proptest::collection::vec(value_strategy(), 0..4),
                0..12,
            )
        ) {
            let tuples: Vec<Tuple> = batch.into_iter().map(Tuple::new).collect();
            let grown_parts: Vec<Bytes> = tuples.iter().map(grown::encode_tuple).collect();
            let parts: Vec<Bytes> = tuples.iter().map(encode_tuple).collect();
            prop_assert_eq!(&parts, &grown_parts);
            for t in &tuples {
                prop_assert_eq!(encode_value_slice(t.values()), grown::encode_tuple(t));
                prop_assert_eq!(tuple_encoded_size(t), grown::encode_tuple(t).len());
            }
            let grown_frame = grown::encode_rows_message(&grown_parts);
            prop_assert_eq!(&encode_rows_message(&parts), &grown_frame);
            prop_assert_eq!(&encode_rows(&tuples), &grown_frame);
            let mut frame = RowFrame::default();
            for t in &tuples {
                frame.push(t);
            }
            prop_assert_eq!(&frame.take(), &grown_frame);
            prop_assert_eq!(
                encode_columnar_message(&tuples),
                grown::encode_columnar_message(&tuples)
            );
            // Uniform arity: the columnar layout proper.
            let uniform: Vec<Tuple> = tuples.iter().filter(|t| t.arity() == 2).cloned().collect();
            prop_assert_eq!(
                encode_columnar_message(&uniform),
                grown::encode_columnar_message(&uniform)
            );
            // And every frame decodes back to its tuples.
            let back = decode_message(grown_frame).unwrap().into_tuples().unwrap();
            prop_assert_eq!(back.len(), tuples.len());
            for (b, t) in back.iter().zip(&tuples) {
                prop_assert_eq!(b.total_cmp(t), std::cmp::Ordering::Equal);
            }
        }

        #[test]
        fn prop_columnar_roundtrip_uniform(
            rows in proptest::collection::vec(
                proptest::collection::vec(value_strategy(), 3..4),
                0..12,
            )
        ) {
            let tuples: Vec<Tuple> = rows.into_iter().map(Tuple::new).collect();
            let decoded = decode_message(encode_columnar_message(&tuples)).unwrap();
            let back = decoded.into_tuples().unwrap();
            prop_assert_eq!(back.len(), tuples.len());
            for (b, t) in back.iter().zip(&tuples) {
                prop_assert_eq!(b.total_cmp(t), std::cmp::Ordering::Equal);
            }
        }
    }
}
