//! Checks of the benchmark's own parts. They live here and not in
//! `#[test]`s because `cargo test` does not run the tests of an example.

use wsmed::store::{canonicalize, Tuple, Value};

use crate::gen::{Mix, Rng, Zipf, ZIPF_S};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{percentile, quartiles};

pub fn run() -> bool {
    type Check = fn() -> Result<(), String>;
    let checks: [(&str, Check); 6] = [
        ("nearest-rank percentiles", percentiles),
        (
            "quartiles as Python's statistics.quantiles",
            python_quartiles,
        ),
        ("generator transcripts follow the seed", transcripts),
        ("the bag comparator sees dropped and duplicated rows", bags),
        ("the Zipf head frequency", zipf_head),
        ("BENCHMARK.json lists the catalogue", benchmark_json),
    ];
    let mut ok = true;
    for (name, check) in checks {
        match check() {
            Ok(()) => println!("ok    {name}"),
            Err(why) => {
                println!("FAIL  {name}: {why}");
                ok = false;
            }
        }
    }
    ok
}

fn expect(cond: bool, why: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(why())
    }
}

fn percentiles() -> Result<(), String> {
    let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    for (p, want) in [(50.0, 50.0), (95.0, 95.0), (99.0, 99.0), (100.0, 100.0)] {
        let got = percentile(&hundred, p);
        expect(got == want, || format!("p{p} of 1..=100 is {got}"))?;
    }
    let five = [15.0, 20.0, 35.0, 40.0, 50.0];
    for (p, want) in [(5.0, 15.0), (30.0, 20.0), (40.0, 20.0), (50.0, 35.0)] {
        let got = percentile(&five, p);
        expect(got == want, || format!("p{p} of {five:?} is {got}"))?;
    }
    expect(percentile(&[], 50.0) == 0.0, || "empty sample".to_owned())
}

fn python_quartiles() -> Result<(), String> {
    // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    let got = quartiles(&ten);
    expect(got == Some((2.75, 8.25)), || {
        format!("1..=10 gives {got:?}")
    })?;
    // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
    let got = quartiles(&[3.0, 1.0]);
    expect(got == Some((0.5, 3.5)), || format!("[3, 1] gives {got:?}"))
}

fn transcripts() -> Result<(), String> {
    let states: Vec<String> = ["CO", "GA", "TX", "CA", "NY", "WA", "FL", "OH"]
        .map(String::from)
        .to_vec();
    let a = Mix::generate(7, &states, 150.0, 4.0);
    let b = Mix::generate(7, &states, 150.0, 4.0);
    let c = Mix::generate(8, &states, 150.0, 4.0);
    expect(a.transcript() == b.transcript(), || {
        "one seed gave two transcripts".to_owned()
    })?;
    expect(a.transcript() != c.transcript(), || {
        "two seeds gave one transcript".to_owned()
    })?;
    expect(a.injections.len() == 600, || {
        format!("{} injections for 150/s over 4 s", a.injections.len())
    })?;
    expect(
        a.injections.windows(2).all(|w| w[0].due_ns <= w[1].due_ns),
        || "due times are not sorted".to_owned(),
    )
}

fn bags() -> Result<(), String> {
    let row = |s: &str, n: i64| Tuple::new(vec![Value::str(s), Value::Int(n)]);
    let full = canonicalize(vec![row("a", 1), row("b", 2), row("b", 2), row("c", 3)]);
    let shuffled = canonicalize(vec![row("b", 2), row("c", 3), row("a", 1), row("b", 2)]);
    let dropped = canonicalize(vec![row("a", 1), row("b", 2), row("c", 3)]);
    let duplicated = canonicalize(vec![row("a", 1), row("b", 2), row("c", 3), row("c", 3)]);
    expect(full == shuffled, || "order changed the bag".to_owned())?;
    expect(full != dropped, || "a dropped row went unseen".to_owned())?;
    expect(full != duplicated, || {
        "a duplicated row went unseen".to_owned()
    })
}

fn zipf_head() -> Result<(), String> {
    let zipf = Zipf::new(51, ZIPF_S);
    let mut rng = Rng::stream(3, "selftest");
    let draws = 100_000;
    let head = (0..draws).filter(|_| zipf.sample(&mut rng) == 0).count();
    let got = head as f64 / draws as f64;
    let want = zipf.head_probability();
    expect((got - want).abs() < 0.01, || {
        format!("rank 0 drawn {got:.4} of the time, {want:.4} expected")
    })
}

/// Only where the file is there to read: in a checkout's root.
fn benchmark_json() -> Result<(), String> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return Ok(());
    };
    let names = END_TO_END.iter().map(|&(n, u, ..)| (n, u)).chain(PER_LAYER);
    for (name, unit) in names {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        expect(text.contains(&entry), || format!("no entry {entry}"))?;
    }
    let listed = text.matches("\"unit\":").count();
    expect(listed == END_TO_END.len() + PER_LAYER.len(), || {
        format!("{listed} metrics listed")
    })
}
