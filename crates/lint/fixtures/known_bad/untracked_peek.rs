//! Known-bad: a committed peek or load inside a dispatched transaction
//! body. The load is untracked, so on RTM the hardware holds a line the
//! emulated footprint (and the router) never counted.

pub fn relax(&self, sys: &TxnSystem, w: &mut Worker, v: u32, u: u32) {
    w.execute(4, &mut |ops| {
        let dv = ops.read(v, self.addr(v))?;
        // Filtering *inside* the body.
        if sys.peek_committed(self.addr(u)).is_some_and(|(du, _)| du <= dv) {
            return Ok(());
        }
        ops.write(u, self.addr(u), dv)
    });
}

pub fn probe(&self, sys: &TxnSystem, w: &mut Worker, v: u32) {
    w.execute_declared(&[Declared::read(v)], &mut |ops| {
        let seen = sys.peek_committed(self.addr(v));
        ops.read(v, self.addr(v)).map(|_| drop(seen))
    });
}

pub fn relax_all(&self, sys: &TxnSystem, w: &mut Worker, v: u32, us: &[u32]) {
    // A peek through another handle to the system is no better: each of
    // its loads is as untracked as a direct peek's.
    let other = sys;
    w.execute_hinted(TxnHint::sized(2 * us.len()), &mut |ops| {
        let dv = ops.read(v, self.addr(v))?;
        for &u in us {
            if other.peek_committed(self.addr(u)).is_none() {
                ops.write(u, self.addr(u), dv)?;
            }
        }
        Ok(())
    });
}

pub fn relax_loaded(&self, sys: &TxnSystem, w: &mut Worker, v: u32, u: u32) {
    // The one-load committed read is as untracked as the peek.
    w.execute(4, &mut |ops| {
        let dv = ops.read(v, self.addr(v))?;
        if sys.load_committed(self.addr(u)) <= dv {
            return Ok(());
        }
        ops.write(u, self.addr(u), dv)
    });
}
