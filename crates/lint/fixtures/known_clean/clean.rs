//! Known-clean: benign lookalikes for every rule. The analyzer must
//! report ZERO findings on this file.

pub fn attempt(ctx: &mut HtmCtx, items: &[u64]) -> Result<u64, ()> {
    // Token-exact matching: `unwrap_or` is not `unwrap`.
    let first = items.first().copied().unwrap_or(0);
    // String contents are invisible to the lexer.
    let marker = "format! println! Box::new .unwrap()";
    let _ = marker;
    ctx.write(first)
}

// tufast-lint: htm-scope
fn scoped_but_justified(&mut self) {
    // tufast-lint: allow(htm-hazard) -- scratch is presized at construction; push cannot reallocate
    self.scratch.push(1);
}

pub fn helper_outside_scope(items: &[u64]) -> String {
    // Identical hazards outside an HTM scope are fine.
    format!("{}", items.len())
}

pub fn consistent_order_a(&self) {
    let a = self.accounts.lock().unwrap_or_default();
    let b = self.audit.lock().unwrap_or_default();
    drop((a, b));
}

pub fn consistent_order_b(&self) {
    let a = self.accounts.lock().unwrap_or_default();
    let b = self.audit.lock().unwrap_or_default();
    drop((a, b));
}

pub fn publish(&self, result: u64) {
    self.slot.store(result, Ordering::Release);
    self.done.store(true, Ordering::Release);
}

pub fn poll(&self) -> bool {
    self.done.load(Ordering::Acquire)
}

pub fn execute(&mut self, hint: usize, body: &mut TxnBody<'_>) -> TxnOutcome {
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        self.attempt_once(hint, body)
    }));
    self.unpack(out)
}

pub fn warm_count(&mut self, w: &mut Worker) -> u64 {
    // A declared-pure body that only reads is the intended use.
    let mut total = 0;
    w.execute_hinted(TxnHint::read_only(2), &mut |ops| {
        total = ops.read(self.addr)?;
        Ok(())
    });
    total
}

pub fn bump(&mut self, w: &mut Worker) {
    // Writing is fine under a sized (non-pure) hint.
    w.execute_hinted(TxnHint::sized(2), &mut |ops| {
        ops.write(self.addr, 1);
        Ok(())
    });
}

pub fn relax_filtered(&self, sys: &TxnSystem, w: &mut Worker, v: u32, u: u32) {
    // Peeking before the dispatch is the intended use.
    let settled = sys.peek_committed(self.addr(u)).is_some();
    w.execute(4, &mut |ops| {
        if settled {
            return Ok(());
        }
        ops.read(u, self.addr(u)).map(drop)
    });
}

pub fn relax_all_filtered(&self, sys: &TxnSystem, w: &mut Worker, v: u32, us: &[u32]) {
    // A whole neighbourhood, peeked before the dispatch.
    let open: Vec<u32> = us
        .iter()
        .copied()
        .filter(|&u| sys.peek_committed(self.addr(u)).is_none())
        .collect();
    w.execute(2 * open.len(), &mut |ops| {
        let dv = ops.read(v, self.addr(v))?;
        open.iter().try_for_each(|&u| ops.write(u, self.addr(u), dv))
    });
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt(ctx: &mut HtmCtx) {
        let v = vec![1, 2, 3];
        println!("{}", v.len());
        assert_eq!(v.first().unwrap(), &1);
    }
}
