//! The layer calls the traced run replays, one function per public entry
//! point, each wrapped in its span and counting its work. Keeping each
//! call in one place means a change to a layer's signature touches one
//! function here.

use qcp_circuit::Circuit;
use qcp_env::Environment;
use qcp_place::embed::candidate_placements;
use qcp_place::router::route_permutation;
use qcp_place::workspace::{extract_workspaces, Workspace};
use qcp_place::{Placement, PlacementOutcome, Placer, PlacerConfig};
use qcp_verify::{certify, VerifyOptions};

use crate::report::Counters;
use crate::trace::Tracer;

/// `Placer::new`.
pub fn new_placer<'e>(t: &mut Tracer, env: &'e Environment, config: &PlacerConfig) -> Placer<'e> {
    t.span("placer.new", |_| Placer::new(env, config.clone()))
}

/// `Placer::place`.
pub fn place(
    t: &mut Tracer,
    placer: &Placer<'_>,
    circuit: &Circuit,
) -> Result<PlacementOutcome, String> {
    t.span("placer.place", |_| placer.place(circuit))
        .map_err(|e| e.to_string())
}

/// `extract_workspaces` on the placer's fast graph.
pub fn workspaces(
    t: &mut Tracer,
    c: &mut Counters,
    placer: &Placer<'_>,
    circuit: &Circuit,
) -> Result<Vec<Workspace>, String> {
    let out = t
        .span("workspace", |_| {
            extract_workspaces(circuit, placer.fast_graph())
        })
        .map_err(|e| e.to_string())?;
    c.add("workspace.count", out.len() as f64);
    Ok(out)
}

/// `candidate_placements` for one workspace, completed against the
/// previous committed placement.
pub fn candidates(
    t: &mut Tracer,
    c: &mut Counters,
    placer: &Placer<'_>,
    workspace: &Workspace,
    previous: Option<&Placement>,
) -> Result<Vec<Placement>, String> {
    let out = t
        .span("embed", |_| {
            candidate_placements(
                &workspace.interaction,
                placer.fast_graph(),
                previous,
                placer.config().max_candidates,
            )
        })
        .map_err(|e| e.to_string())?;
    c.add("embed.candidates", out.len() as f64);
    Ok(out)
}

/// `route_permutation` from `from` to `to` on the placer's routing graph.
pub fn route(
    t: &mut Tracer,
    c: &mut Counters,
    placer: &Placer<'_>,
    from: &Placement,
    to: &Placement,
) -> Result<(), String> {
    let targets = from.permutation_to(to);
    let schedule = t
        .span("router", |_| {
            route_permutation(placer.routing_graph(), &targets, &placer.config().router)
        })
        .map_err(|e| e.to_string())?;
    c.add("router.swaps", schedule.swap_count() as f64);
    c.add("router.depth", schedule.depth() as f64);
    Ok(())
}

/// `Schedule::runtime` of an outcome.
pub fn cost(t: &mut Tracer, placer: &Placer<'_>, outcome: &PlacementOutcome) -> f64 {
    let env = placer.environment();
    let model = placer.config().cost_model;
    t.span("cost", |_| outcome.schedule.runtime(env, &model).units())
}

/// `qcp_verify::certify` with options derived from the placer's config.
pub fn certify_outcome(
    t: &mut Tracer,
    circuit: &Circuit,
    placer: &Placer<'_>,
    outcome: &PlacementOutcome,
) -> Result<(), String> {
    let options = VerifyOptions::from_config(placer.config());
    t.span("certify", |_| {
        certify(circuit, placer.environment(), &options, outcome)
    })
    .map(|_| ())
    .map_err(|v| format!("certification rejected: {} violation(s)", v.len()))
}
