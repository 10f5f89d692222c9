//! The traced run: times calls into each layer's public functions on the
//! workload's images, keeps one span per call in memory, and writes the
//! spans out when it ends.
//!
//! Every layer's output is checked (round trips, ROI crops, replayed
//! decisions); a mismatch counts the image's operation as failed.

use cbic::arith::{BinaryDecoder, BinaryEncoder, DecisionEncoder};
use cbic::bitio::{BitReader, BitWriter};
use cbic::core::grid::{compress_grid, decode_roi_from, decompress_grid, parse_grid, TileGeometry};
use cbic::core::{encode_model_only, CodecConfig, EncoderState, StreamDecoder, StreamEncoder};
use cbic::image::pgm;
use cbic::image::Image;
use cbic::{DecodeOptions, EncodeOptions, Parallelism, Rect};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::io::{self, Read, Seek, SeekFrom};
use std::time::Instant;

/// Tile size of the grid layer, the one the `viewer` workload uses.
const TILE: u32 = 256;
/// Pixels per image whose decisions are recorded for the coder replay; it
/// bounds the recording's memory (8 bytes per decision).
const ARITH_MAX_PX: usize = 1 << 20;
/// `parse_grid` repeats per image: one parse takes microseconds.
const PARSE_REPEATS: u32 = 20;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: usize,
}

/// In-memory span recorder.
struct Tracer {
    base: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: usize,
}

impl Tracer {
    fn new() -> Self {
        Self {
            base: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str) {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its duration in ns.
    fn end(&mut self) -> u64 {
        let end_ns = self.now();
        let id = self.open.pop().expect("end() without begin()");
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    /// Runs `f` inside a span named `name`, returning its result and duration.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        self.begin(name);
        let out = black_box(f());
        (out, self.end())
    }

    fn to_json(&self) -> String {
        let mut s = String::from("{\"clock\": \"probe\", \"spans\": [\n");
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{}{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}",
                if i > 0 { ",\n" } else { "" },
                span.name,
                span.start_ns,
                span.end_ns,
                span.op
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

/// Sum of nanoseconds over a count of work units.
#[derive(Default)]
struct Acc {
    ns: u64,
    units: u64,
}

impl Acc {
    fn add(&mut self, ns: u64, units: u64) {
        self.ns += ns;
        self.units += units;
    }

    fn per_unit(&self) -> f64 {
        self.ns as f64 / self.units.max(1) as f64
    }
}

/// Records every `encode` call as `bit << 34 | c0 << 17 | total`, the
/// packing `DecisionBatch` uses.
#[derive(Default)]
struct Recorder {
    calls: Vec<u64>,
    deterministic: u64,
    coded: u64,
}

impl DecisionEncoder for Recorder {
    fn encode(&mut self, bit: bool, c0: u32, total: u32) {
        self.coded += u64::from((c0 != 0) & (c0 != total));
        self.calls
            .push(u64::from(bit) << 34 | u64::from(c0) << 17 | u64::from(total));
    }

    fn decisions(&self) -> u64 {
        self.calls.len() as u64 + self.deterministic
    }

    fn coded_decisions(&self) -> u64 {
        self.coded
    }

    fn note_deterministic(&mut self, n: u64) {
        self.deterministic += n;
    }

    /// Drive the model through the same per-decision path a real
    /// single-coder encode takes.
    fn prefers_batch(&self) -> bool {
        false
    }
}

/// A `Read + Seek` source that counts the bytes read through it.
struct CountingReader<R> {
    inner: R,
    bytes: u64,
}

impl<R: Read> Read for CountingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
}

impl<R: Seek> Seek for CountingReader<R> {
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        self.inner.seek(pos)
    }
}

/// The pixels of `rect`, cut from `img` here rather than by the codec.
fn cut(img: &Image, rect: Rect) -> Vec<u16> {
    let (x, w) = (rect.x as usize, rect.w as usize);
    (rect.y as usize..(rect.y + rect.h) as usize)
        .flat_map(|y| img.row(y)[x..x + w].iter().copied())
        .collect()
}

fn parse_roi(value: &str) -> Result<(usize, Rect), String> {
    let (index, rect) = value
        .split_once(':')
        .ok_or_else(|| format!("--roi wants I:X,Y,W,H, got {value}"))?;
    let f: Vec<u32> = rect
        .split(',')
        .map(str::parse)
        .collect::<Result<_, _>>()
        .map_err(|e| format!("--roi {value}: {e}"))?;
    let [x, y, w, h] = f[..] else {
        return Err(format!("--roi wants I:X,Y,W,H, got {value}"));
    };
    let index = index.parse().map_err(|e| format!("--roi {value}: {e}"))?;
    Ok((index, Rect::new(x, y, w, h)))
}

#[derive(Default)]
struct Layers {
    pgm_read: Acc,
    pgm_write: Acc,
    model: Acc,
    decisions: u64,
    coded: u64,
    arith_enc: Acc,
    arith_dec: Acc,
    codec_enc: Acc,
    codec_dec: Acc,
    stream_enc: Acc,
    stream_dec: Acc,
    grid_enc: [Acc; 2],
    grid_dec: [Acc; 2],
    roi: Acc,
    roi_tiles: u64,
    roi_bytes: u64,
    parse: Acc,
    flat_bytes: u64,
    pixels: u64,
}

/// Runs every layer on one image; `Ok(false)` when an output was wrong.
fn trace_image(t: &mut Tracer, l: &mut Layers, path: &str, rois: &[Rect]) -> Result<bool, String> {
    let cfg = CodecConfig::default();
    let mut ok = true;
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;

    let (img, ns) = t.time("pgm.read", || pgm::decode(&bytes));
    let img = img.map_err(|e| format!("{path}: {e}"))?;
    let (w, h, depth) = (img.width(), img.height(), img.bit_depth());
    let px = (w * h) as u64;
    l.pixels += px;
    l.pgm_read.add(ns, px);
    let (written, ns) = t.time("pgm.write", || pgm::encode(&img));
    l.pgm_write.add(ns, px);
    ok &= written == bytes;

    let (stats, ns) = t.time("engine.model", || encode_model_only(img.view(), &cfg));
    l.model.add(ns, px);
    l.decisions += stats.decisions;
    l.coded += stats.coded_decisions;

    // Coder alone: record the model's decisions on (at most) the top rows,
    // then replay them into the binary coder and back.
    let rows = (ARITH_MAX_PX / w).clamp(1, h);
    let top = Image::from_samples(w, rows, depth, img.samples()[..w * rows].to_vec())
        .map_err(|e| e.to_string())?;
    let mut rec = Recorder::default();
    t.time("arith.record", || {
        EncoderState::new(w, depth, &cfg).encode_view(top.view(), &mut rec)
    });
    let n = rec.calls.len() as u64;
    let (coded_bytes, ns) = t.time("arith.encode", || {
        let mut enc = BinaryEncoder::new(BitWriter::new());
        for &p in &rec.calls {
            enc.encode(
                p >> 34 != 0,
                (p >> 17) as u32 & 0x1_FFFF,
                p as u32 & 0x1_FFFF,
            );
        }
        enc.finish().into_bytes()
    });
    l.arith_enc.add(ns, n);
    let (mismatches, ns) = t.time("arith.decode", || {
        let mut dec = BinaryDecoder::new(BitReader::new(&coded_bytes));
        rec.calls
            .iter()
            .filter(|&&p| {
                dec.decode((p >> 17) as u32 & 0x1_FFFF, p as u32 & 0x1_FFFF) != (p >> 34 != 0)
            })
            .count()
    });
    l.arith_dec.add(ns, n);
    ok &= mismatches == 0;
    drop(rec);

    let registry = cbic::default_registry();
    let codec = registry
        .expect_name("proposed")
        .map_err(|e| e.to_string())?;
    let (flat, ns) = t.time("codec.encode", || {
        codec.encode_vec(img.view(), &EncodeOptions::default())
    });
    let flat = flat.map_err(|e| e.to_string())?;
    l.codec_enc.add(ns, px);
    l.flat_bytes += flat.len() as u64;
    let (back, ns) = t.time("codec.decode", || {
        codec.decode_vec(&flat, &DecodeOptions::default())
    });
    l.codec_dec.add(ns, px);
    ok &= back.is_ok_and(|b| b.samples() == img.samples());

    let (streamed, ns) = t.time("stream.encode", || -> io::Result<Vec<u8>> {
        let mut enc = StreamEncoder::with_depth(Vec::new(), w, h, depth, &cfg)?;
        for y in 0..h {
            enc.push_row(img.row(y))?;
        }
        enc.finish()
    });
    let streamed = streamed.map_err(|e| e.to_string())?;
    l.stream_enc.add(ns, px);
    let (back, ns) = t.time("stream.decode", || {
        StreamDecoder::new(&streamed[..]).and_then(StreamDecoder::decode_all)
    });
    l.stream_dec.add(ns, px);
    ok &= back.is_ok_and(|b| b.samples() == img.samples());

    let geom = TileGeometry::new(TILE, TILE);
    let mut grids = Vec::new();
    for (i, (enc_name, dec_name, par)) in [
        ("grid.encode.t1", "grid.decode.t1", Parallelism::Sequential),
        ("grid.encode.t2", "grid.decode.t2", Parallelism::Threads(2)),
    ]
    .into_iter()
    .enumerate()
    {
        let (grid, ns) = t.time(enc_name, || compress_grid(img.view(), &cfg, geom, 1, par));
        l.grid_enc[i].add(ns, px);
        let (back, ns) = t.time(dec_name, || decompress_grid(&grid, par));
        l.grid_dec[i].add(ns, px);
        ok &= back.is_ok_and(|b| b.samples() == img.samples());
        grids.push(grid);
    }
    ok &= grids[0] == grids[1];
    let grid = &grids[0];

    t.begin("grid.parse");
    let start = Instant::now();
    let mut parsed = None;
    for _ in 0..PARSE_REPEATS {
        parsed = Some(black_box(parse_grid(black_box(grid))));
    }
    l.parse
        .add(start.elapsed().as_nanos() as u64, u64::from(PARSE_REPEATS));
    t.end();
    let index = match parsed {
        Some(Ok((_, index, _))) => index,
        _ => return Ok(false),
    };

    for &rect in rois {
        let mut reader = CountingReader {
            inner: io::Cursor::new(&grid[..]),
            bytes: 0,
        };
        let (crop, ns) = t.time("grid.roi", || {
            decode_roi_from(&mut reader, rect, Parallelism::Sequential)
        });
        l.roi.add(ns, 1);
        l.roi_bytes += reader.bytes;
        let (c0, c1, r0, r1) = index.covering(rect).map_err(|e| e.to_string())?;
        l.roi_tiles += ((c1 - c0 + 1) * (r1 - r0 + 1)) as u64;
        ok &= crop.is_ok_and(|c| c.samples() == cut(&img, rect));
    }
    Ok(ok)
}

/// Entry point of `perfbench-probe trace`.
pub fn run(args: &[String]) -> Result<(), String> {
    let mut spans_path = None;
    let mut rois: BTreeMap<usize, Vec<Rect>> = BTreeMap::new();
    let mut images = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--spans" => spans_path = Some(it.next().ok_or("--spans needs a path")?.clone()),
            "--roi" => {
                let (i, rect) = parse_roi(it.next().ok_or("--roi needs a value")?)?;
                rois.entry(i).or_default().push(rect);
            }
            _ => images.push(arg.clone()),
        }
    }
    let spans_path = spans_path.ok_or("trace needs --spans OUT.json")?;
    if images.is_empty() {
        return Err("trace needs at least one image".into());
    }

    let mut t = Tracer::new();
    let mut l = Layers::default();
    let mut failed = 0;
    for (i, path) in images.iter().enumerate() {
        t.op = i;
        t.begin("image");
        let ok = trace_image(
            &mut t,
            &mut l,
            path,
            rois.get(&i).map_or(&[], Vec::as_slice),
        )?;
        t.end();
        failed += usize::from(!ok);
    }
    std::fs::write(&spans_path, t.to_json()).map_err(|e| format!("{spans_path}: {e}"))?;

    let px = l.pixels.max(1) as f64;
    let rois_run = l.roi.units.max(1) as f64;
    let metrics = [
        ("pgm.read_ns_px", l.pgm_read.per_unit()),
        ("pgm.write_ns_px", l.pgm_write.per_unit()),
        ("engine.model_ns_px", l.model.per_unit()),
        ("engine.decisions_per_px", l.decisions as f64 / px),
        ("engine.coded_decisions_per_px", l.coded as f64 / px),
        ("arith.encode_ns_decision", l.arith_enc.per_unit()),
        ("arith.decode_ns_decision", l.arith_dec.per_unit()),
        ("codec.encode_ns_px", l.codec_enc.per_unit()),
        ("codec.decode_ns_px", l.codec_dec.per_unit()),
        ("stream.encode_ns_px", l.stream_enc.per_unit()),
        ("stream.decode_ns_px", l.stream_dec.per_unit()),
        ("grid.encode_ns_px_t1", l.grid_enc[0].per_unit()),
        ("grid.encode_ns_px_t2", l.grid_enc[1].per_unit()),
        ("grid.decode_ns_px_t1", l.grid_dec[0].per_unit()),
        ("grid.decode_ns_px_t2", l.grid_dec[1].per_unit()),
        ("grid.roi_ms", l.roi.per_unit() / 1e6),
        ("grid.roi_tiles", l.roi_tiles as f64 / rois_run),
        ("grid.roi_bytes_read", l.roi_bytes as f64 / rois_run),
        ("grid.index_parse_us", l.parse.per_unit() / 1e3),
        ("grid.flat_bpp", l.flat_bytes as f64 * 8.0 / px),
    ];
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| format!("\"{name}\": {value}"))
        .collect();
    println!(
        "{{\"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        images.len(),
        body.join(", ")
    );
    Ok(())
}
