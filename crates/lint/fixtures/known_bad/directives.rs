//! Known-bad: directive misuse is itself diagnosed.

// tufast-lint: allow(htm-hazard)
pub fn suppressed_without_reason(ctx: &mut HtmCtx) {
    ctx.buf.clone();
}

// tufast-lint: frobnicate(everything)
pub fn unknown_directive() {}
