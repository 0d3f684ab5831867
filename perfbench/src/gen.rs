//! Seeded request generation and the independent correctness oracle.
//!
//! Every request is a pure function of `(workload, seed, index)`: the
//! generator draws its parameters from a per-index RNG, renders the
//! Mini-Haskell program from them, and computes the expected answer
//! from the *same parameters* in plain Rust — never by asking the
//! compiler. A `run` expects the rendered value of `main`; a `check`
//! expects a verdict (`ok`) and the exact set of diagnostic codes the
//! generator planted.

use std::collections::BTreeSet;
use std::fmt::Write as _;

/// The four benchmark workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SmallOpen,
    BatchCheck,
    LargeSweep,
    EvalHeavy,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SmallOpen,
        Workload::BatchCheck,
        Workload::LargeSweep,
        Workload::EvalHeavy,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SmallOpen => "small_open",
            Workload::BatchCheck => "batch_check",
            Workload::LargeSweep => "large_sweep",
            Workload::EvalHeavy => "eval_heavy",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// xorshift64* with a splitmix64-scrambled seed: small, fast, and
/// identical on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a, used for stream hashes and for salting RNG streams by name.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Rng {
    pub fn new(seed: u64, stream: &str, index: u64) -> Rng {
        let s = splitmix(seed ^ fnv1a(stream.as_bytes()) ^ splitmix(index));
        Rng(if s == 0 { 0x2545_F491_4F6C_DD1D } else { s })
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        let span = (hi - lo + 1) as u64;
        lo + (self.next_u64() % span) as i64
    }

    pub fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[(self.next_u64() % xs.len() as u64) as usize]
    }

    /// True with probability `pct` percent.
    pub fn chance(&mut self, pct: u64) -> bool {
        self.next_u64() % 100 < pct
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// What the server is asked to do with a program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Run,
    /// `cmd:"check"` with the lint pass on (the server's default).
    Check,
    /// `cmd:"check"` plus `check_laws`.
    CheckLaws,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Run => "run",
            Kind::Check => "check",
            Kind::CheckLaws => "check_laws",
        }
    }
}

/// The oracle's answer for one request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expect {
    /// `main` renders to exactly this text.
    Value(String),
    /// The check verdict and the set of distinct diagnostic codes.
    Verdict { ok: bool, codes: BTreeSet<String> },
}

impl std::fmt::Display for Expect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Expect::Value(v) => write!(f, "value {v}"),
            Expect::Verdict { ok, codes } => write!(f, "ok={ok} codes={codes:?}"),
        }
    }
}

/// One generated request.
#[derive(Clone, Debug)]
pub struct Request {
    pub index: u64,
    pub kind: Kind,
    pub family: &'static str,
    /// The size knob the family was drawn with (lines, items, bindings
    /// or list length), and whether it falls in the workload's large
    /// size class (the numerator of `scaling_ratio`).
    pub size: u64,
    pub large: bool,
    pub program: String,
    pub expect: Expect,
    /// Evaluator budget overrides carried on the request.
    pub fuel: Option<u64>,
    pub max_allocs: Option<u64>,
}

/// Append `s` as a JSON string literal.
pub fn json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl Request {
    /// The request as one protocol line (without the newline); `id`
    /// is the request index.
    pub fn line(&self) -> String {
        let mut s = String::with_capacity(self.program.len() + 96);
        let _ = write!(s, "{{\"id\":{}", self.index);
        match self.kind {
            Kind::Run => {}
            Kind::Check => s.push_str(",\"cmd\":\"check\""),
            Kind::CheckLaws => s.push_str(",\"cmd\":\"check\",\"check_laws\":true"),
        }
        if let Some(f) = self.fuel {
            let _ = write!(s, ",\"fuel\":{f}");
        }
        if let Some(a) = self.max_allocs {
            let _ = write!(s, ",\"max_allocs\":{a}");
        }
        s.push_str(",\"program\":");
        json_str(&mut s, &self.program);
        s.push('}');
        s
    }

    /// Generate request `index` of `workload` under `seed`.
    pub fn generate(workload: Workload, seed: u64, index: u64) -> Request {
        let mut rng = Rng::new(seed, workload.name(), index);
        match workload {
            Workload::SmallOpen => small(&mut rng, index),
            Workload::BatchCheck => medium(&mut rng, index),
            Workload::LargeSweep => sweep(&mut rng, index),
            Workload::EvalHeavy => heavy(&mut rng, index),
        }
    }
}

/// FNV-1a over the first `n` request lines of a stream: equal seeds
/// give equal hashes, and the hash names the exact byte stream.
pub fn stream_hash(workload: Workload, seed: u64, n: u64) -> u64 {
    let mut bytes = Vec::new();
    for i in 0..n {
        bytes.extend_from_slice(Request::generate(workload, seed, i).line().as_bytes());
        bytes.push(b'\n');
    }
    fnv1a(&bytes)
}

fn run_req(
    index: u64,
    family: &'static str,
    size: u64,
    large: bool,
    program: String,
    value: String,
) -> Request {
    Request {
        index,
        kind: Kind::Run,
        family,
        size,
        large,
        program,
        expect: Expect::Value(value),
        fuel: None,
        max_allocs: None,
    }
}

fn render_bool(b: bool) -> String {
    if b { "True" } else { "False" }.to_string()
}

/// Right-nested `f a (f b (... z))`.
fn nest(f: &str, items: &[String], last: &str) -> String {
    let mut s = last.to_string();
    for it in items.iter().rev() {
        s = format!("{f} {it} ({s})");
    }
    s
}

/// `cons a (cons b (... nil))`.
fn list_lit(xs: &[i64]) -> String {
    nest(
        "cons",
        &xs.iter().map(|x| x.to_string()).collect::<Vec<_>>(),
        "nil",
    )
}

// ---------------------------------------------------------------------
// small_open: 3–30 line programs over the prelude, five families.

const SMALL_LARGE_LINES: u64 = 17;

fn small(rng: &mut Rng, index: u64) -> Request {
    match index % 5 {
        0 => small_member(rng, index),
        1 => small_max(rng, index),
        2 => small_num(rng, index),
        3 => small_data(rng, index),
        _ => small_class(rng, index),
    }
}

/// Eq via the paper's `member` over a list assembled from chunks.
fn small_member(rng: &mut Rng, index: u64) -> Request {
    let chunks = rng.range(1, 28) as usize;
    let mut all = vec![100_000 + index as i64];
    let mut p = String::new();
    for c in 0..chunks {
        let mut xs = Vec::new();
        if c == 0 {
            xs.push(all[0]);
        }
        for _ in 0..rng.range(1, 3) {
            xs.push(rng.range(0, 999));
        }
        let _ = writeln!(p, "p{c} = {};", list_lit(&xs));
        all.extend_from_slice(&xs[usize::from(c == 0)..]);
    }
    let names: Vec<String> = (0..chunks).map(|c| format!("p{c}")).collect();
    let (init, last) = names.split_at(chunks - 1);
    let _ = writeln!(p, "xs = {};", nest("append", init, &last[0]));
    let probe = if rng.chance(50) {
        all[rng.range(1, all.len() as i64 - 1).max(0) as usize]
    } else {
        rng.range(0, 999)
    };
    let _ = writeln!(p, "main = member {probe} xs;");
    let lines = chunks as u64 + 2;
    run_req(
        index,
        "member",
        lines,
        lines >= SMALL_LARGE_LINES,
        p,
        render_bool(all.contains(&probe)),
    )
}

/// Ord via a chain of `max2`.
fn small_max(rng: &mut Rng, index: u64) -> Request {
    let k = rng.range(2, 29) as usize;
    let mut p = format!("m0 = {};\n", index as i64);
    let mut best = index as i64;
    for j in 1..k {
        let v = rng.range(0, 99_999);
        best = best.max(v);
        let _ = writeln!(p, "m{j} = max2 m{} {v};", j - 1);
    }
    let _ = writeln!(p, "main = m{};", k - 1);
    let lines = k as u64 + 1;
    run_req(
        index,
        "max2",
        lines,
        lines >= SMALL_LARGE_LINES,
        p,
        best.to_string(),
    )
}

/// Num folds: sums of squares through the `Num Int` dictionary.
fn small_num(rng: &mut Rng, index: u64) -> Request {
    let k = rng.range(1, 27) as usize;
    let mut p = String::from("sq x = mul x x;\n");
    let mut total = index as i64;
    let mut terms = vec![index.to_string()];
    for j in 0..k {
        let a = rng.range(1, 50);
        let b = a + rng.range(0, 12);
        total += (a..=b).map(|x| x * x).sum::<i64>();
        let _ = writeln!(p, "t{j} = foldr add 0 (map sq (enumFromTo {a} {b}));");
        terms.push(format!("t{j}"));
    }
    let (init, last) = terms.split_at(terms.len() - 1);
    let _ = writeln!(p, "main = {};", nest("add", init, &last[0]));
    let lines = k as u64 + 2;
    run_req(
        index,
        "num_fold",
        lines,
        lines >= SMALL_LARGE_LINES,
        p,
        total.to_string(),
    )
}

/// Derived `Eq`/`Ord` on an enumeration and a product over it.
fn small_data(rng: &mut Rng, index: u64) -> Request {
    let ctors = rng.range(2, 8);
    let names: Vec<String> = (0..ctors).map(|c| format!("K{c}")).collect();
    let mut p = format!("data Col = {} deriving (Eq, Ord);\n", names.join(" | "));
    p.push_str("data Pt = Pt Int Col deriving (Eq, Ord);\n");
    let m = rng.range(1, 27) as usize;
    let mut count = index as i64;
    let mut terms = vec![index.to_string()];
    for j in 0..m {
        let (a, ca) = (rng.range(0, 9), rng.range(0, ctors - 1));
        let (b, cb) = if rng.chance(25) {
            (a, ca)
        } else {
            (rng.range(0, 9), rng.range(0, ctors - 1))
        };
        let op = rng.pick(&["lt", "lte", "eq", "neq"]);
        let (x, y) = ((a, ca), (b, cb));
        let holds = match op {
            "lt" => x < y,
            "lte" => x <= y,
            "eq" => x == y,
            _ => x != y,
        };
        count += i64::from(holds);
        let _ = writeln!(
            p,
            "n{j} = if {op} (Pt {a} K{ca}) (Pt {b} K{cb}) then 1 else 0;"
        );
        terms.push(format!("n{j}"));
    }
    let (init, last) = terms.split_at(terms.len() - 1);
    let _ = writeln!(p, "main = {};", nest("add", init, &last[0]));
    let lines = m as u64 + 3;
    run_req(
        index,
        "deriving",
        lines,
        lines >= SMALL_LARGE_LINES,
        p,
        count.to_string(),
    )
}

/// A user class with three instances, called at each.
fn small_class(rng: &mut Rng, index: u64) -> Request {
    let mut p = String::from(
        "class Shape a where { area :: a -> Int; };\n\
         data Sq = Sq Int;\n\
         data Rect = Rect Int Int;\n\
         instance Shape Sq where { area = \\s -> case s of { Sq n -> mul n n }; };\n\
         instance Shape Rect where { area = \\r -> case r of { Rect w h -> mul w h }; };\n\
         instance Shape Int where { area = \\n -> n; };\n",
    );
    let m = rng.range(1, 23) as usize;
    let mut total = index as i64;
    let mut terms = vec![index.to_string()];
    for j in 0..m {
        let (v, w) = (rng.range(1, 99), rng.range(1, 99));
        let (call, val) = match rng.range(0, 2) {
            0 => (format!("area (Sq {v})"), v * v),
            1 => (format!("area (Rect {v} {w})"), v * w),
            _ => (format!("area {v}"), v),
        };
        total += val;
        let _ = writeln!(p, "a{j} = {call};");
        terms.push(format!("a{j}"));
    }
    let (init, last) = terms.split_at(terms.len() - 1);
    let _ = writeln!(p, "main = {};", nest("add", init, &last[0]));
    let lines = m as u64 + 7;
    run_req(
        index,
        "user_class",
        lines,
        lines >= SMALL_LARGE_LINES,
        p,
        total.to_string(),
    )
}

// ---------------------------------------------------------------------
// batch_check: medium programs with user classes, superclasses,
// instances over derived data, and planted findings.

#[derive(Clone, Copy)]
enum Shape {
    Circle(i64),
    Square(i64),
    Tri(i64, i64),
}

impl Shape {
    fn tag(self) -> (u8, i64, i64) {
        match self {
            Shape::Circle(r) => (0, r, 0),
            Shape::Square(w) => (1, w, 0),
            Shape::Tri(b, h) => (2, b, h),
        }
    }
    fn area(self) -> i64 {
        match self {
            Shape::Circle(r) => 3 * r * r,
            Shape::Square(w) => w * w,
            Shape::Tri(b, h) => b * h,
        }
    }
    fn src(self) -> String {
        match self {
            Shape::Circle(r) => format!("(Circle {r})"),
            Shape::Square(w) => format!("(Square {w})"),
            Shape::Tri(b, h) => format!("(Tri {b} {h})"),
        }
    }
}

const COLORS: [&str; 3] = ["Red", "Green", "Blue"];
const BATCH_LARGE_ITEMS: u64 = 8;

fn medium(rng: &mut Rng, index: u64) -> Request {
    // The mix is fixed by position, not drawn: a law check costs about
    // ten plain requests, so a drawn mix would make batch times vary
    // with the draw. Of every 20 requests, 13 run, 6 check, 1 checks laws.
    let kind = match index % 20 {
        0..=12 => Kind::Run,
        13..=18 => Kind::Check,
        _ => Kind::CheckLaws,
    };
    let (p1, p2) = (rng.range(1, 20), rng.range(2, 5));
    let mut p = format!(
        "data Shape = Circle Int | Square Int | Tri Int Int deriving (Eq, Ord);\n\
         data Color = Red | Green | Blue deriving (Eq, Ord);\n\
         data Tagged = Tagged Color Shape deriving (Eq, Ord);\n\
         class Area a where {{ area :: a -> Int; }};\n\
         class Area a => Priced a where {{ price :: a -> Int; }};\n\
         instance Area Shape where {{\n\
         \x20 area = \\s -> case s of {{ Circle r -> mul 3 (mul r r); Square w -> mul w w; Tri b h -> mul b h }};\n\
         }};\n\
         instance Area Color where {{ area = \\c -> case c of {{ Red -> 1; Green -> 2; Blue -> 3 }}; }};\n\
         instance Area Tagged where {{ area = \\t -> case t of {{ Tagged c s -> add (area c) (area s) }}; }};\n\
         instance Area a => Area (List a) where {{ area = \\ys -> foldr add 0 (map area ys); }};\n\
         instance Priced Shape where {{ price = \\s -> add (area s) {p1}; }};\n\
         instance Priced Tagged where {{ price = \\t -> mul (area t) {p2}; }};\n\
         total ys = foldr add 0 (map price ys);\n\
         biggest ys = foldr max2 (head ys) (tail ys);\n"
    );
    let k = rng.range(3, 12) as usize;
    let mut items = Vec::with_capacity(k);
    for _ in 0..k {
        let c = rng.range(0, 2) as usize;
        let s = match rng.range(0, 2) {
            0 => Shape::Circle(rng.range(1, 30)),
            1 => Shape::Square(rng.range(1, 30)),
            _ => Shape::Tri(rng.range(1, 30), rng.range(1, 30)),
        };
        items.push((c, s));
    }
    let item_src: Vec<String> = items
        .iter()
        .map(|(c, s)| format!("(Tagged {} {})", COLORS[*c], s.src()))
        .collect();
    p.push_str("items = ");
    p.push_str(&nest("cons", &item_src, "nil"));
    p.push_str(";\n");
    // Oracle: area of a Tagged is color index + 1 plus the shape area;
    // price multiplies that by p2; derived Ord compares the color tag
    // first, then the shape (constructor tag, then fields).
    let tagged_area = |(c, s): (usize, Shape)| c as i64 + 1 + s.area();
    let key = |(c, s): (usize, Shape)| (c, s.tag());
    let total: i64 = items.iter().map(|&it| tagged_area(it) * p2).sum();
    let area_all: i64 = items.iter().map(|&it| tagged_area(it)).sum();
    // foldr max2 (head ys) (tail ys): max2 x y keeps y when x <= y, so
    // the fold returns the maximum.
    let big = items.iter().copied().fold(
        items[0],
        |acc, it| if key(acc) <= key(it) { it } else { acc },
    );
    let probe = if rng.chance(50) {
        items[rng.range(0, k as i64 - 1) as usize]
    } else {
        (rng.range(0, 2) as usize, Shape::Square(rng.range(31, 60)))
    };
    let probe_src = format!("(Tagged {} {})", COLORS[probe.0], probe.1.src());
    let hit = items.iter().any(|&it| key(it) == key(probe));
    let _ = writeln!(
        p,
        "main = add (total items) (add (area items) (add (area (biggest items)) \
         (if member {probe_src} items then price {probe_src} else {index})));"
    );
    let value = total
        + area_all
        + tagged_area(big)
        + if hit {
            tagged_area(probe) * p2
        } else {
            index as i64
        };
    let mut codes = BTreeSet::new();
    let mut ok = true;
    match kind {
        Kind::Run => {}
        Kind::Check => {
            if rng.chance(40) {
                p.push_str("keep x unusedArg = x;\n");
                codes.insert("L0004".to_string());
            }
            if rng.chance(20) {
                p.push_str(
                    "instance Area Int where { area = \\n -> n; };\n\
                     instance Area Int where { area = \\n -> add n 1; };\n",
                );
                codes.insert("L0008".to_string());
                ok = false;
            }
        }
        Kind::CheckLaws => {
            if (index / 20).is_multiple_of(2) {
                p.push_str(
                    "data Tok = TokA | TokB;\n\
                     instance Eq Tok where { eq = \\_x _y -> False; neq = \\_x _y -> True; };\n",
                );
                codes.insert("L0011".to_string());
            }
        }
    }
    Request {
        index,
        kind,
        family: "medium",
        size: k as u64,
        large: k as u64 >= BATCH_LARGE_ITEMS,
        program: p,
        expect: match kind {
            Kind::Run => Expect::Value(value.to_string()),
            _ => Expect::Verdict { ok, codes },
        },
        fuel: None,
        max_allocs: None,
    }
}

// ---------------------------------------------------------------------
// large_sweep: N top-level bindings mixing overloaded functions, class
// declarations and instances.

/// Sizes of the sweep. Requests alternate between them, large first, so
/// most of a run's time goes into the headline (large) size while the
/// small size still gets as many samples for `scaling_ratio`.
pub const SWEEP_SMALL: u64 = 100;
pub const SWEEP_LARGE: u64 = 400;

fn sweep(rng: &mut Rng, index: u64) -> Request {
    let n = if index % 2 == 0 {
        SWEEP_LARGE
    } else {
        SWEEP_SMALL
    };
    let mut p = String::with_capacity(n as usize * 64);
    // What each binding computes on the probe arguments main applies.
    let mut vals: Vec<(String, i64)> = Vec::new();
    for i in 0..n {
        let c = rng.range(1, 999);
        match i % 10 {
            0 => {
                let _ = writeln!(
                    p,
                    "class K{i} a where {{ k{i} :: a -> Int; }};\n\
                     instance K{i} Int where {{ k{i} = \\x -> add x {c}; }};\n\
                     instance K{i} Bool where {{ k{i} = \\b -> if b then {c} else 0; }};\n\
                     h{i} x = add (k{i} x) (k{i} True);"
                );
                // h x at x = 5: (5 + c) + c
                vals.push((format!("(h{i} 5)"), 5 + 2 * c));
            }
            1 | 4 | 7 => {
                let _ = writeln!(
                    p,
                    "f{i} x xs = if member x xs then cons x xs else cons (add x {c}) xs;"
                );
                // length (f 2 (cons 1 nil)) is 2 either way; head differs.
                vals.push((format!("(head (f{i} 2 (cons 1 nil)))"), 2 + c));
            }
            2 | 5 | 8 => {
                let _ = writeln!(p, "g{i} x y = max2 (add x y) {c};");
                vals.push((format!("(g{i} 300 200)"), 500.max(c)));
            }
            _ => {
                let _ = writeln!(p, "e{i} x = if eq x {c} then sub x 1 else mul x 2;");
                vals.push((format!("(e{i} {c})"), c - 1));
            }
        }
    }
    let mut terms = Vec::new();
    let mut total = index as i64;
    for _ in 0..6 {
        let (t, v) = vals[rng.range(0, vals.len() as i64 - 1) as usize].clone();
        terms.push(t);
        total += v;
    }
    let _ = writeln!(p, "main = {};", nest("add", &terms, &index.to_string()));
    run_req(index, "sweep", n, n == SWEEP_LARGE, p, total.to_string())
}

// ---------------------------------------------------------------------
// eval_heavy: overloaded arithmetic and derived Ord/Eq over lists of
// at most 150 elements.

const HEAVY_LARGE_LEN: u64 = 125;

fn heavy(rng: &mut Rng, index: u64) -> Request {
    let n = rng.range(100, 150);
    let a = rng.range(3, 97);
    let m = rng.pick(&[
        101i64, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157,
    ]);
    let k = rng.range(2, 9);
    let b = rng.range(3, 97);
    let t = rng.range(20, 40);
    let (tx, ty) = (rng.range(0, m - 1), rng.range(1, n));
    let p = format!(
        "data P = P Int Int deriving (Eq, Ord);\n\
         mkp x = P (primModInt (mul x {a}) {m}) x;\n\
         ins q ys = if null ys then cons q nil else if lte q (head ys) then cons q ys else cons (head ys) (ins q (tail ys));\n\
         isort zs = foldr ins nil zs;\n\
         fstP q = case q of {{ P u _ -> u }};\n\
         sndP q = case q of {{ P _ v -> v }};\n\
         sq x = mul x x;\n\
         pts = map mkp (enumFromTo 1 {n});\n\
         sorted = isort pts;\n\
         biggest ys = foldr max2 (head ys) (tail ys);\n\
         below = length (filter (\\q -> lt q (P {tx} {ty})) pts);\n\
         same = length (filter (\\q -> eq q (P {tx} {ty})) pts);\n\
         mkq x = P (primModInt (mul x {b}) {m}) (sub {n} x);\n\
         qs = map mkq (enumFromTo 1 {n});\n\
         cross = foldr add 0 (map (\\q -> length (filter (\\p -> lt p q) pts)) (take {t} qs));\n\
         main = add (foldr add 0 (map sq (map fstP (take 10 sorted))))\n\
         \x20      (add (mul {k} (sndP (head sorted)))\n\
         \x20      (add below (add same (add cross (add {index} (sndP (biggest pts)))))));\n"
    );
    let mut pts: Vec<(i64, i64)> = (1..=n).map(|x| ((x * a) % m, x)).collect();
    let target = (tx, ty);
    let below = pts.iter().filter(|&&q| q < target).count() as i64;
    let same = pts.iter().filter(|&&q| q == target).count() as i64;
    let big = *pts.iter().max().expect("n >= 100");
    let cross: i64 = (1..=t)
        .map(|x| ((x * b) % m, n - x))
        .map(|q| pts.iter().filter(|&&p| p < q).count() as i64)
        .sum();
    pts.sort();
    let firsts: i64 = pts.iter().take(10).map(|q| q.0 * q.0).sum();
    let value = firsts + k * pts[0].1 + below + same + cross + index as i64 + big.1;
    Request {
        index,
        kind: Kind::Run,
        family: "eval_heavy",
        size: n as u64,
        large: n as u64 >= HEAVY_LARGE_LEN,
        program: p,
        expect: Expect::Value(value.to_string()),
        fuel: Some(200_000_000),
        max_allocs: Some(200_000_000),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_a_byte_identical_stream() {
        for w in Workload::ALL {
            assert_eq!(stream_hash(w, 7, 50), stream_hash(w, 7, 50), "{}", w.name());
            for i in 0..20 {
                assert_eq!(
                    Request::generate(w, 7, i).line(),
                    Request::generate(w, 7, i).line()
                );
            }
        }
    }

    #[test]
    fn different_seeds_give_different_streams() {
        for w in Workload::ALL {
            assert_ne!(stream_hash(w, 7, 50), stream_hash(w, 8, 50), "{}", w.name());
        }
    }

    #[test]
    fn small_open_bodies_are_distinct_and_sized() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..2000 {
            let r = Request::generate(Workload::SmallOpen, 3, i);
            let lines = r.program.lines().count() as u64;
            assert!((3..=30).contains(&lines), "{lines} lines:\n{}", r.program);
            assert_eq!(lines, r.size, "{}", r.program);
            assert!(seen.insert(r.program), "duplicate body at {i}");
        }
    }

    #[test]
    fn batch_mix_matches_the_stated_shares() {
        let mut counts = [0u32; 3];
        let mut planted = 0;
        for i in 0..2000 {
            let r = Request::generate(Workload::BatchCheck, 11, i);
            counts[r.kind as usize] += 1;
            if let Expect::Verdict { codes, .. } = &r.expect {
                planted += u32::from(!codes.is_empty());
            }
        }
        assert_eq!(counts, [1300, 600, 100]);
        assert!(planted > 100, "{planted}");
    }

    #[test]
    fn json_lines_escape_program_text() {
        let r = Request::generate(Workload::EvalHeavy, 1, 0);
        let line = r.line();
        assert!(!line.contains('\n'));
        let v = tc_trace::json::parse(&line).expect("well-formed");
        assert_eq!(
            v.get("program").and_then(|p| p.as_str()),
            Some(r.program.as_str())
        );
    }
}
