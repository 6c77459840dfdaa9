//! The per-layer ledger: the cost of one call of each layer's public entry
//! point, timed on one thread on inputs taken from the workload.

use std::sync::Arc;
use std::time::{Duration, Instant};

use wsmed::core::paper::{self, PaperSetup};
use wsmed::core::{
    wire, CacheKey, CachePolicy, CallCache, CallLookup, PlanFunction, PlanOp, PlannerPolicy,
    QueryPlan, SimTransport, WsTransport, Wsmed,
};
use wsmed::netsim::{Network, SimConfig};
use wsmed::services::{
    install_paper_services, AviationService, Dataset, DatasetConfig, GeoPlacesService,
    TerraService, UsZipService, ZipCodesService,
};
use wsmed::store::{Tuple, Value, ValueBatch};

use crate::stats::{median, percentile, time_ns};
use crate::workloads::{load_mix_resilience, Kind};

/// Time spent timing one entry point.
const BUDGET: Duration = Duration::from_millis(40);

/// One operation per provider: the one dependent joins call most.
const SAMPLES: [(&str, &str); 5] = [
    (GeoPlacesService::PROVIDER, "GetPlacesWithin"),
    (TerraService::PROVIDER, "GetPlaceList"),
    (UsZipService::PROVIDER, "GetInfoByState"),
    (ZipCodesService::PROVIDER, "GetPlacesInside"),
    (AviationService::PROVIDER, "GetAirports"),
];

/// What one web service call of a provider costs in each layer it crosses.
pub struct ProviderCost {
    pub provider: &'static str,
    pub transport_us: f64,
    pub services_us: f64,
    pub flatten_us: f64,
    pub flatten_batch_us: f64,
}

/// Unit costs by metric name, and per provider for the layers a web service
/// call crosses.
pub struct Units {
    pub scalars: Vec<(&'static str, f64)>,
    pub providers: Vec<ProviderCost>,
}

impl Units {
    pub fn get(&self, name: &str) -> f64 {
        self.scalars
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("unit cost {name} was not measured"))
    }

    /// The mean of `cost` over providers, weighted by the calls each served.
    pub fn per_call(&self, calls: &[(String, u64)], cost: impl Fn(&ProviderCost) -> f64) -> f64 {
        let mut total = 0.0;
        let mut weight = 0.0;
        for (name, n) in calls {
            // Replicas are named `<provider>#<i>`.
            let base = name.split('#').next().unwrap_or(name);
            if let Some(p) = self.providers.iter().find(|p| p.provider == base) {
                total += cost(p) * *n as f64;
                weight += *n as f64;
            }
        }
        if weight > 0.0 {
            total / weight
        } else {
            0.0
        }
    }
}

fn first_plan_function(plan: &QueryPlan) -> Option<PlanFunction> {
    let mut op = Some(&plan.root);
    while let Some(cur) = op {
        if let PlanOp::FfApply { pf, .. } | PlanOp::AffApply { pf, .. } = cur {
            return Some(pf.clone());
        }
        op = cur.input();
    }
    None
}

/// Argument text for the sampled operations, by input name.
fn sample_arg(dataset: &Dataset, input: &str) -> String {
    let state = dataset
        .states()
        .iter()
        .map(|s| s.abbr.as_str())
        .find(|abbr| {
            !dataset
                .places_within("Atlanta", abbr, 15.0, "City")
                .is_empty()
        })
        .expect("some state has an Atlanta");
    match input {
        "place" => "Atlanta".to_owned(),
        "state" | "USState" | "stateAbbr" => state.to_owned(),
        "distance" => "15.0".to_owned(),
        "placeTypeToFind" => "City".to_owned(),
        "placeName" => {
            let (name, st, _) = &dataset.places_within("Atlanta", state, 15.0, "City")[0];
            format!("{name}, {st}")
        }
        "MaxItems" => "100".to_owned(),
        "imagePresence" => "true".to_owned(),
        "zip" => {
            let zips = dataset.zips_for_state(state).expect("the state has zips");
            zips.split(',').next().expect("a first zip").to_owned()
        }
        other => panic!("no sample argument for input {other}"),
    }
}

/// Nanoseconds to microseconds.
const US: f64 = 1e-3;

/// Median nanoseconds of one call of `f`, whose result is kept from the
/// optimiser.
fn call_ns<R>(mut f: impl FnMut() -> R) -> f64 {
    time_ns(BUDGET, || {
        std::hint::black_box(f());
    })
}

/// Wall milliseconds of one call of `f`: the first quartile over `REPS`
/// calls, the same quiet estimate the end-to-end metrics take over slices.
fn quiet_ms<R>(mut f: impl FnMut() -> R) -> f64 {
    const REPS: usize = 15;
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    percentile(&samples, 25.0)
}

/// Times every layer on a fresh, unpaced mediator of the workload. `sql` is
/// the workload's first SQL text.
pub fn measure(kind: Kind, config: &DatasetConfig, sql: &str) -> Units {
    use std::hint::black_box;
    let PaperSetup {
        wsmed: med,
        dataset,
        ..
    } = kind.build_at(0.0, config);
    let mut scalars: Vec<(&'static str, f64)> = Vec::new();
    let mut put = |name, value| scalars.push((name, value));

    // sqlfront and planner.
    put(
        "sqlfront.parse_us",
        US * call_ns(|| wsmed::sql::parse_select(black_box(sql)).unwrap()),
    );
    put(
        "sqlfront.calculus_us",
        US * call_ns(|| med.calculus(black_box(sql)).unwrap()),
    );
    put(
        "planner.central_us",
        US * call_ns(|| med.compile_central(black_box(sql)).unwrap()),
    );
    let central = med
        .compile_central(sql)
        .expect("the workload's SQL compiles");
    let fanouts = vec![2; wsmed::core::parallel_level_count(&central)];
    put(
        "planner.parallelize_us",
        US * call_ns(|| wsmed::core::parallelize(&central, &fanouts).unwrap()),
    );
    let policy = med.planner_policy();
    med.set_planner_policy(PlannerPolicy::CostBased { prune: true });
    put(
        "planner.cost_search_us",
        US * call_ns(|| med.plan_query(black_box(sql)).unwrap()),
    );
    med.set_planner_policy(policy);

    // wire: the plan function the workload ships (the default parallel plan
    // where its own plan has none), and the tuples of a captured response.
    let pf = kind
        .compile(&med, sql)
        .ok()
        .and_then(|plan| first_plan_function(&plan))
        .or_else(|| first_plan_function(&wsmed::core::parallelize(&central, &fanouts).ok()?))
        .expect("the workload's SQL has a parallel plan");
    let pf_bytes = wire::encode_plan_function(&pf);
    put(
        "wire.pf_encode_us",
        US * call_ns(|| wire::encode_plan_function(black_box(&pf))),
    );
    put(
        "wire.pf_decode_us",
        US * call_ns(|| wire::decode_plan_function(pf_bytes.clone()).unwrap()),
    );

    let transport = SimTransport::new(med.registry().clone());
    let states_owf = med.owfs().get("GetAllStates").expect("GetAllStates");
    let states_value = transport
        .call_operation(states_owf, &[])
        .expect("GetAllStates answers");
    let tuples: Vec<Tuple> = states_owf.flatten(&states_value).expect("flattens");
    let n = tuples.len() as f64;
    let row_frames: Vec<_> = tuples.iter().map(wire::encode_tuple).collect();
    let col_frame = wire::encode_columnar_message(&tuples);
    put(
        "wire.row_encode_ns_per_tuple",
        call_ns(|| {
            for t in &tuples {
                black_box(wire::encode_tuple(t));
            }
        }) / n,
    );
    put(
        "wire.row_decode_ns_per_tuple",
        call_ns(|| {
            for f in &row_frames {
                black_box(wire::decode_tuple(f.clone()).unwrap());
            }
        }) / n,
    );
    put(
        "wire.row_bytes_per_tuple",
        row_frames.iter().map(|f| f.len()).sum::<usize>() as f64 / n,
    );
    put(
        "wire.col_encode_ns_per_tuple",
        call_ns(|| wire::encode_columnar_message(&tuples)) / n,
    );
    put(
        "wire.col_decode_ns_per_tuple",
        call_ns(|| {
            let batch = wire::decode_message(col_frame.clone()).unwrap();
            batch.into_tuples().unwrap()
        }) / n,
    );
    put("wire.col_bytes_per_tuple", col_frame.len() as f64 / n);
    put(
        "store.batch_from_tuples_ns_per_tuple",
        call_ns(|| ValueBatch::from_tuples(&tuples)) / n,
    );

    // xmlite, on the same response as XML text.
    let states_xml = med
        .registry()
        .call(
            &states_owf.wsdl_uri,
            &states_owf.service,
            "GetAllStates",
            &[],
        )
        .expect("GetAllStates answers");
    let xml_text = states_xml.to_xml();
    let megabytes = xml_text.len() as f64 / 1e6;
    put(
        "xmlite.parse_mb_per_s",
        megabytes / (call_ns(|| wsmed::xml::parse(&xml_text).unwrap()) / 1e9),
    );
    put(
        "xmlite.write_mb_per_s",
        megabytes / (call_ns(|| states_xml.to_xml()) / 1e9),
    );

    // transport, services and wsdl flatten, one operation per provider.
    let mut providers = Vec::new();
    for (provider, owf_name) in SAMPLES {
        let owf = med.owfs().get(owf_name).expect("the paper's OWFs import");
        let text: Vec<(String, String)> = owf
            .inputs
            .iter()
            .map(|(name, _)| (name.clone(), sample_arg(&dataset, name)))
            .collect();
        let args: Vec<Value> = owf
            .inputs
            .iter()
            .zip(&text)
            .map(|((_, ty), (_, t))| ty.value_from_text(t))
            .collect();
        let response = transport.call_operation(owf, &args).expect("sample call");
        let registry = med.registry();
        providers.push(ProviderCost {
            provider,
            transport_us: US * call_ns(|| transport.call_operation(owf, &args).unwrap()),
            services_us: US
                * call_ns(|| {
                    registry
                        .call(&owf.wsdl_uri, &owf.service, &owf.operation, &text)
                        .unwrap()
                }),
            flatten_us: US * call_ns(|| owf.flatten(&response).unwrap()),
            flatten_batch_us: US * call_ns(|| owf.flatten_batch(&response).unwrap()),
        });
    }

    // mailbox: the channel every parent and child process talk through.
    let (tx, rx) = crossbeam::channel::bounded::<u64>(2);
    put(
        "mailbox.send_recv_ns",
        call_ns(|| {
            tx.send(1).unwrap();
            rx.recv().unwrap()
        }),
    );
    put("mailbox.roundtrip_us", US * mailbox_roundtrip_ns());

    // cache: a hit, and a miss that is then completed, under `load_mix`'s
    // capacity with twice as many keys so that every rotation misses.
    let cache = CallCache::new(
        CachePolicy {
            capacity: 2048,
            cross_run: true,
            ..CachePolicy::default()
        },
        0.0,
    );
    let keys: Vec<CacheKey> = (0..4096)
        .map(|i| CacheKey::for_call("GetPlacesInside", &[Value::str(format!("{i:05}"))]))
        .collect();
    let value = Value::str("cached response");
    let settle = |key: &CacheKey| match cache.lookup_call(key) {
        CallLookup::Miss(flight) => flight.complete(&value),
        CallLookup::Hit { .. } | CallLookup::Retry => {}
    };
    settle(&keys[0]);
    put(
        "cache.lookup_ns",
        call_ns(|| matches!(cache.lookup_call(&keys[0]), CallLookup::Hit { .. })),
    );
    let mut next = 0;
    put(
        "cache.miss_complete_ns",
        call_ns(|| {
            next = (next + 1) % keys.len();
            settle(&keys[next]);
        }),
    );

    // resilience: the central Query2 with and without `load_mix`'s policy;
    // the difference is what the layer costs a call that never fails.
    let plain = paper::setup(0.0, config.clone());
    let mut guarded = paper::setup(0.0, config.clone());
    guarded.wsmed.set_resilience_policy(load_mix_resilience());
    let query2 = |m: &Wsmed| m.run_central(paper::QUERY2_SQL).expect("Query2 runs");
    let calls = query2(&plain.wsmed).ws_calls as f64;
    put(
        "resilience.passthrough_ns_per_call",
        (quiet_ms(|| query2(&guarded.wsmed)) - quiet_ms(|| query2(&plain.wsmed))) * 1e6 / calls,
    );

    // exec: the first operation on a fresh mediator, and the central plan
    // of the same SQL that `exec.tree_overhead_ms` is taken against.
    let first: Vec<f64> = (0..5)
        .map(|_| {
            let fresh = kind.build(config);
            let t = Instant::now();
            let plan = kind.compile(&fresh.wsmed, sql).expect("compiles");
            black_box(fresh.wsmed.execute(&plan).expect("executes"));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    put("exec.first_query_ms", median(&first));
    put(
        "exec.central_execute_ms",
        quiet_ms(|| plain.wsmed.execute(&central).unwrap()),
    );

    // set-up: the dataset, and installing the services and importing WSDL.
    put(
        "services.dataset_generate_ms",
        quiet_ms(|| Dataset::generate(config.clone())),
    );
    put(
        "wsdl.import_ms",
        quiet_ms(|| {
            let network = Network::new(SimConfig::new(0.0, 1));
            let mut fresh = Wsmed::new(install_paper_services(network, Arc::clone(&dataset)));
            fresh.import_all_wsdl().unwrap()
        }),
    );

    Units { scalars, providers }
}

/// A bounded(2) ping-pong between two threads: what one blocking hop of the
/// parent-child protocol costs, wake-up included.
fn mailbox_roundtrip_ns() -> f64 {
    const ROUNDS: usize = 2000;
    let (ping_tx, ping_rx) = crossbeam::channel::bounded::<u64>(2);
    let (pong_tx, pong_rx) = crossbeam::channel::bounded::<u64>(2);
    std::thread::scope(|scope| {
        scope.spawn(move || {
            while let Ok(v) = ping_rx.recv() {
                if pong_tx.send(v).is_err() {
                    break;
                }
            }
        });
        let samples: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                for i in 0..ROUNDS as u64 {
                    ping_tx.send(i).expect("the echo thread is alive");
                    std::hint::black_box(pong_rx.recv().expect("the echo thread answers"));
                }
                t.elapsed().as_nanos() as f64 / ROUNDS as f64
            })
            .collect();
        drop(ping_tx);
        median(&samples)
    })
}
