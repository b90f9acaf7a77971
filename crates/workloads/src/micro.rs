//! Micro programs: small, targeted IR programs used by tests, examples,
//! and the DSA/fault-injection studies.
//!
//! `linked_list` reproduces the paper's running example (`createNode` /
//! `getSum`, Figures 2.9 and 2.10) verbatim; the others each exercise one
//! memory-error class or one transformation path.

use crate::util::{lcg_mod, lcg_state};
use dpmr_ir::prelude::*;

/// The paper's linked-list example: `createNode()` (Fig. 2.9) and
/// `getSum()` (Fig. 2.10) plus a `main` that builds an `n`-node list,
/// sums it, frees it, and outputs the sum.
pub fn linked_list(n: i64) -> Module {
    let mut m = Module::new();
    let i32t = m.types.int(32);
    let i64t = m.types.int(64);
    let ll = m.types.opaque_struct("LinkedList");
    let llp = m.types.pointer(ll);
    m.types.set_struct_body(ll, vec![i32t, llp]);

    // LL* createNode(int32 data, LL* last)
    let create = {
        let mut b =
            FunctionBuilder::new(&mut m, "createNode", llp, &[("data", i32t), ("last", llp)]);
        let data = b.param(0);
        let last = b.param(1);
        let n_reg = b.malloc(ll, Const::i64(1).into(), "n");
        let data_ptr = b.field_addr(n_reg.into(), 0, "dataPtr");
        b.store(data_ptr.into(), data.into());
        let nxt_ptr = b.field_addr(n_reg.into(), 1, "nxtPtr");
        b.store(nxt_ptr.into(), Const::Null { pointee: ll }.into());
        let c = b.cmp(CmpPred::Ne, last.into(), Const::Null { pointee: ll }.into());
        b.if_then(c.into(), |b| {
            let last_nxt = b.field_addr(last.into(), 1, "lastNxtPtr");
            b.store(last_nxt.into(), n_reg.into());
        });
        b.ret(Some(n_reg.into()));
        b.finish()
    };

    // int32 getSum(LL* n)
    let get_sum = {
        let mut b = FunctionBuilder::new(&mut m, "getSum", i32t, &[("n", llp)]);
        let node = b.param(0);
        let sum = b.reg(i32t, "sum");
        b.assign(sum, Const::i32(0).into());
        let head = b.block();
        let body = b.block();
        let exit = b.block();
        b.br(head);
        b.switch_to(head);
        let c = b.cmp(CmpPred::Ne, node.into(), Const::Null { pointee: ll }.into());
        b.cond_br(c.into(), body, exit);
        b.switch_to(body);
        let data_ptr = b.field_addr(node.into(), 0, "dataPtr");
        let v = b.load(i32t, data_ptr.into(), "v");
        let s2 = b.bin(BinOp::Add, i32t, sum.into(), v.into());
        b.assign(sum, s2.into());
        let nxt_ptr = b.field_addr(node.into(), 1, "nxtPtr");
        let nxt = b.load(llp, nxt_ptr.into(), "nxt");
        b.assign(node, nxt.into());
        b.br(head);
        b.switch_to(exit);
        b.ret(Some(sum.into()));
        b.finish()
    };

    // main: build, sum, free.
    let main = {
        let mut b = FunctionBuilder::new(&mut m, "main", i64t, &[]);
        let headp = b.reg(llp, "head");
        let tail = b.reg(llp, "tail");
        b.assign(headp, Const::Null { pointee: ll }.into());
        b.assign(tail, Const::Null { pointee: ll }.into());
        b.for_loop(Const::i64(0).into(), Const::i64(n).into(), |b, i| {
            let d = b.cast(CastOp::Trunc, i32t, i.into(), "d");
            let node = b
                .call(
                    Callee::Direct(create),
                    vec![d.into(), tail.into()],
                    Some(llp),
                    "node",
                )
                .expect("returns node");
            b.assign(tail, node.into());
            let was_null = b.cmp(
                CmpPred::Eq,
                headp.into(),
                Const::Null { pointee: ll }.into(),
            );
            b.if_then(was_null.into(), |b| {
                b.assign(headp, node.into());
            });
        });
        let sum = b
            .call(
                Callee::Direct(get_sum),
                vec![headp.into()],
                Some(i32t),
                "sum",
            )
            .expect("sum");
        let sum64 = b.cast(CastOp::Sext, i64t, sum.into(), "sum64");
        b.output(sum64.into());
        // Free the list.
        let cur = b.reg(llp, "cur");
        b.assign(cur, headp.into());
        let head_bb = b.block();
        let body_bb = b.block();
        let exit_bb = b.block();
        b.br(head_bb);
        b.switch_to(head_bb);
        let c = b.cmp(CmpPred::Ne, cur.into(), Const::Null { pointee: ll }.into());
        b.cond_br(c.into(), body_bb, exit_bb);
        b.switch_to(body_bb);
        let nxt_ptr = b.field_addr(cur.into(), 1, "nxtPtr");
        let nxt = b.load(llp, nxt_ptr.into(), "nxt");
        b.free(cur.into());
        b.assign(cur, nxt.into());
        b.br(head_bb);
        b.switch_to(exit_bb);
        b.ret(Some(Const::i64(0).into()));
        b.finish()
    };
    m.entry = Some(main);
    m
}

/// Allocates `alloc_n` i64 slots and writes `write_n` of them — a buffer
/// overflow whenever `write_n > alloc_n` — then sums the first `alloc_n`
/// back. Used to demonstrate out-of-bounds detection.
pub fn overflow_writer(alloc_n: i64, write_n: i64) -> Module {
    let mut m = Module::new();
    let i64t = m.types.int(64);
    let arr = m.types.unsized_array(i64t);
    let arrp = m.types.pointer(arr);
    let mut b = FunctionBuilder::new(&mut m, "main", i64t, &[]);
    // Two adjacent objects so the overflow has a victim.
    let raw_a = b.malloc(i64t, Const::i64(alloc_n).into(), "a");
    let a = b.cast(CastOp::Bitcast, arrp, raw_a.into(), "aArr");
    let raw_v = b.malloc(i64t, Const::i64(alloc_n).into(), "victim");
    let v = b.cast(CastOp::Bitcast, arrp, raw_v.into(), "vArr");
    b.for_loop(Const::i64(0).into(), Const::i64(alloc_n).into(), |b, i| {
        let slot = b.index_addr(v.into(), i.into(), "vs");
        b.store(slot.into(), Const::i64(5).into());
    });
    b.for_loop(Const::i64(0).into(), Const::i64(write_n).into(), |b, i| {
        let slot = b.index_addr(a.into(), i.into(), "as");
        let x = b.bin(BinOp::Mul, i64t, i.into(), Const::i64(3).into());
        b.store(slot.into(), x.into());
    });
    let sum = b.reg(i64t, "sum");
    b.assign(sum, Const::i64(0).into());
    b.for_loop(Const::i64(0).into(), Const::i64(alloc_n).into(), |b, i| {
        let slot = b.index_addr(v.into(), i.into(), "vs2");
        let x = b.load(i64t, slot.into(), "x");
        let s = b.bin(BinOp::Add, i64t, sum.into(), x.into());
        b.assign(sum, s.into());
    });
    b.output(sum.into());
    b.free(raw_a.into());
    b.free(raw_v.into());
    b.ret(Some(Const::i64(0).into()));
    let f = b.finish();
    m.entry = Some(f);
    m
}

/// Recovery workbench program: a heap array `a` of `n` i64 slots written
/// in full, followed by a victim array `v` of `m` slots initialized to 5
/// and summed to the output. In-bounds as written; under a heap-array-
/// resize injection at `a`'s allocation the writes overflow, and the
/// replica-side overflow corrupts the *application* victim while the
/// victim's replica stays intact — the exact asymmetry repair-from-replica
/// exploits. Nothing is freed, so corrupted block headers are never
/// validated and the only failure mode is data corruption (caught at the
/// victim's checked loads).
pub fn resize_victim(n: i64, m: i64) -> Module {
    let mut m_ = Module::new();
    let i64t = m_.types.int(64);
    let arr = m_.types.unsized_array(i64t);
    let arrp = m_.types.pointer(arr);
    let mut b = FunctionBuilder::new(&mut m_, "main", i64t, &[]);
    let raw_a = b.malloc(i64t, Const::i64(n).into(), "a");
    let a = b.cast(CastOp::Bitcast, arrp, raw_a.into(), "aArr");
    let raw_v = b.malloc(i64t, Const::i64(m).into(), "victim");
    let v = b.cast(CastOp::Bitcast, arrp, raw_v.into(), "vArr");
    b.for_loop(Const::i64(0).into(), Const::i64(m).into(), |b, i| {
        let slot = b.index_addr(v.into(), i.into(), "vs");
        b.store(slot.into(), Const::i64(5).into());
    });
    b.for_loop(Const::i64(0).into(), Const::i64(n).into(), |b, i| {
        let slot = b.index_addr(a.into(), i.into(), "as");
        let x = b.bin(BinOp::Mul, i64t, i.into(), Const::i64(3).into());
        b.store(slot.into(), x.into());
    });
    let sum = b.reg(i64t, "sum");
    b.assign(sum, Const::i64(0).into());
    b.for_loop(Const::i64(0).into(), Const::i64(m).into(), |b, i| {
        let slot = b.index_addr(v.into(), i.into(), "vs2");
        let x = b.load(i64t, slot.into(), "x");
        let s = b.bin(BinOp::Add, i64t, sum.into(), x.into());
        b.assign(sum, s.into());
    });
    b.output(sum.into());
    b.ret(Some(Const::i64(0).into()));
    let f = b.finish();
    m_.entry = Some(f);
    m_
}

/// Memory-scrub kernel for throughput work: a heap table of `n` i64
/// slots initialized to `3i + 1`, then read end-to-end `rounds` times
/// into an `alloca` accumulator that is output at the end. The hot loop
/// is almost nothing but checked memory traffic once transformed — per
/// element one table load and one read-modify-write of the accumulator
/// — which makes it the stress workload for the dispatch loop and for
/// profile-guided site selection (the table's checks detect heap
/// faults; the accumulator's rarely do). Golden-clean and
/// fully deterministic.
pub fn table_scrub(n: i64, rounds: i64) -> Module {
    let mut m = Module::new();
    let i64t = m.types.int(64);
    let arr = m.types.unsized_array(i64t);
    let arrp = m.types.pointer(arr);
    let mut b = FunctionBuilder::new(&mut m, "main", i64t, &[]);
    let raw = b.malloc(i64t, Const::i64(n).into(), "tbl");
    let tbl = b.cast(CastOp::Bitcast, arrp, raw.into(), "tblArr");
    b.for_loop(Const::i64(0).into(), Const::i64(n).into(), |b, i| {
        let slot = b.index_addr(tbl.into(), i.into(), "slot");
        let v = b.bin(BinOp::Mul, i64t, i.into(), Const::i64(3).into());
        let v1 = b.bin(BinOp::Add, i64t, v.into(), Const::i64(1).into());
        b.store(slot.into(), v1.into());
    });
    let acc = b.alloca(i64t, "acc");
    b.store(acc.into(), Const::i64(0).into());
    b.for_loop(Const::i64(0).into(), Const::i64(rounds).into(), |b, _r| {
        b.for_loop(Const::i64(0).into(), Const::i64(n).into(), |b, i| {
            let slot = b.index_addr(tbl.into(), i.into(), "s2");
            let v = b.load(i64t, slot.into(), "v");
            let a0 = b.load(i64t, acc.into(), "a0");
            let a1 = b.bin(BinOp::Add, i64t, a0.into(), v.into());
            b.store(acc.into(), a1.into());
        });
    });
    let total = b.load(i64t, acc.into(), "total");
    b.output(total.into());
    b.free(raw.into());
    b.ret(Some(Const::i64(0).into()));
    let f = b.finish();
    m.entry = Some(f);
    m
}

/// Pointer-chasing victim for the runtime fault campaign: a heap node
/// chain traversed `rounds` times, with every memory class live so every
/// `dpmr_vm::fault::FaultModel` class has sites that can actually fire:
///
/// * heap: the node table, the nodes, and a per-round scratch buffer
///   (freed each round, so the allocator free list is non-empty during
///   traversal — the state dangling-reuse redirection needs);
/// * stack: an `alloca` accumulator read and written every round;
/// * globals: a round counter loaded and stored per round;
/// * every third node is spliced out of the chain and freed up front, so
///   traversal follows pointers past recycled memory.
///
/// Golden-clean by construction (only initialized memory is read) and
/// fully deterministic.
pub fn pointer_chase(n: i64, rounds: i64) -> Module {
    let mut m = Module::new();
    let i64t = m.types.int(64);
    let node = m.types.opaque_struct("chase");
    let nodep = m.types.pointer(node);
    m.types.set_struct_body(node, vec![i64t, nodep]);
    let tbl_arr = m.types.unsized_array(nodep);
    let tblp = m.types.pointer(tbl_arr);
    let scratch_arr = m.types.unsized_array(i64t);
    let scratchp = m.types.pointer(scratch_arr);
    let ground = m.add_global(Global {
        name: "rounds_done".into(),
        ty: i64t,
        init: GlobalInit::Int(0),
    });

    let mut b = FunctionBuilder::new(&mut m, "main", i64t, &[]);
    // Build the node table and chain.
    let raw_tbl = b.malloc(nodep, Const::i64(n).into(), "tbl");
    let tbl = b.cast(CastOp::Bitcast, tblp, raw_tbl.into(), "tblArr");
    b.for_loop(Const::i64(0).into(), Const::i64(n).into(), |b, i| {
        let nd = b.malloc(node, Const::i64(1).into(), "nd");
        let vp = b.field_addr(nd.into(), 0, "vp");
        b.store(vp.into(), i.into());
        let np = b.field_addr(nd.into(), 1, "np");
        b.store(np.into(), Const::Null { pointee: node }.into());
        let slot = b.index_addr(tbl.into(), i.into(), "slot");
        b.store(slot.into(), nd.into());
    });
    b.for_loop(Const::i64(0).into(), Const::i64(n - 1).into(), |b, i| {
        let slot = b.index_addr(tbl.into(), i.into(), "cs");
        let cur = b.load(nodep, slot.into(), "cur");
        let nxt_i = b.bin(BinOp::Add, i64t, i.into(), Const::i64(1).into());
        let nslot = b.index_addr(tbl.into(), nxt_i.into(), "ns");
        let nxt = b.load(nodep, nslot.into(), "nxt");
        let np = b.field_addr(cur.into(), 1, "np");
        b.store(np.into(), nxt.into());
    });
    // Splice out and free every third interior node (indices 1, 4, 7, …):
    // neighbours of a spliced node are never themselves spliced, so the
    // chain stays valid while the free list fills up.
    b.for_loop(Const::i64(0).into(), Const::i64(n).into(), |b, i| {
        let rem = b.bin(BinOp::SRem, i64t, i.into(), Const::i64(3).into());
        let is_mid = b.cmp(CmpPred::Eq, rem.into(), Const::i64(1).into());
        let in_range = b.cmp(CmpPred::Slt, i.into(), Const::i64(n - 1).into());
        let both = b.bin(BinOp::And, i64t, is_mid.into(), in_range.into());
        b.if_then(both.into(), |b| {
            let prev_i = b.bin(BinOp::Sub, i64t, i.into(), Const::i64(1).into());
            let nxt_i = b.bin(BinOp::Add, i64t, i.into(), Const::i64(1).into());
            let pslot = b.index_addr(tbl.into(), prev_i.into(), "ps");
            let prev = b.load(nodep, pslot.into(), "prev");
            let cslot = b.index_addr(tbl.into(), i.into(), "cs2");
            let cur = b.load(nodep, cslot.into(), "cur2");
            let nslot = b.index_addr(tbl.into(), nxt_i.into(), "ns2");
            let nxt = b.load(nodep, nslot.into(), "nxt2");
            let pnp = b.field_addr(prev.into(), 1, "pnp");
            b.store(pnp.into(), nxt.into());
            b.free(cur.into());
            b.store(cslot.into(), Const::Null { pointee: node }.into());
        });
    });
    // Traverse the chain `rounds` times, accumulating through a stack
    // slot and counting rounds through the global.
    let acc = b.alloca(i64t, "acc");
    b.store(acc.into(), Const::i64(0).into());
    b.for_loop(Const::i64(0).into(), Const::i64(rounds).into(), |b, r| {
        let head_slot = b.index_addr(tbl.into(), Const::i64(0).into(), "hs");
        let cur = b.reg(nodep, "walk");
        let start = b.load(nodep, head_slot.into(), "head");
        b.assign(cur, start.into());
        let head_bb = b.block();
        let body_bb = b.block();
        let exit_bb = b.block();
        b.br(head_bb);
        b.switch_to(head_bb);
        let c = b.cmp(
            CmpPred::Ne,
            cur.into(),
            Const::Null { pointee: node }.into(),
        );
        b.cond_br(c.into(), body_bb, exit_bb);
        b.switch_to(body_bb);
        let vp = b.field_addr(cur.into(), 0, "vp2");
        let v = b.load(i64t, vp.into(), "v");
        let a0 = b.load(i64t, acc.into(), "a0");
        let a1 = b.bin(BinOp::Add, i64t, a0.into(), v.into());
        b.store(acc.into(), a1.into());
        let np = b.field_addr(cur.into(), 1, "np2");
        let nxt = b.load(nodep, np.into(), "step");
        b.assign(cur, nxt.into());
        b.br(head_bb);
        b.switch_to(exit_bb);
        // Per-round scratch: allocate, initialize a prefix, fold it into
        // the accumulator, free (repopulating the free list each round).
        let raw_s = b.malloc(i64t, Const::i64(8).into(), "scratch");
        let s = b.cast(CastOp::Bitcast, scratchp, raw_s.into(), "sArr");
        b.for_loop(Const::i64(0).into(), Const::i64(4).into(), |b, j| {
            let sj = b.index_addr(s.into(), j.into(), "sj");
            let x = b.bin(BinOp::Mul, i64t, j.into(), r.into());
            b.store(sj.into(), x.into());
        });
        b.for_loop(Const::i64(0).into(), Const::i64(4).into(), |b, j| {
            let sj = b.index_addr(s.into(), j.into(), "sj2");
            let x = b.load(i64t, sj.into(), "x");
            let a2 = b.load(i64t, acc.into(), "a2");
            let a3 = b.bin(BinOp::Add, i64t, a2.into(), x.into());
            b.store(acc.into(), a3.into());
        });
        b.free(raw_s.into());
        let g0 = b.load(i64t, Operand::Global(ground), "g0");
        let g1 = b.bin(BinOp::Add, i64t, g0.into(), Const::i64(1).into());
        b.store(Operand::Global(ground), g1.into());
    });
    let total = b.load(i64t, acc.into(), "total");
    b.output(total.into());
    let done = b.load(i64t, Operand::Global(ground), "done");
    b.output(done.into());
    // Free the surviving nodes and the table.
    b.for_loop(Const::i64(0).into(), Const::i64(n).into(), |b, i| {
        let slot = b.index_addr(tbl.into(), i.into(), "fs");
        let p = b.load(nodep, slot.into(), "fp");
        let live = b.cmp(CmpPred::Ne, p.into(), Const::Null { pointee: node }.into());
        b.if_then(live.into(), |b| {
            b.free(p.into());
        });
    });
    b.free(raw_tbl.into());
    b.ret(Some(Const::i64(0).into()));
    let f = b.finish();
    m.entry = Some(f);
    m
}

/// Classic use-after-free: free a buffer, allocate another (which reuses
/// the memory), then read through the dangling pointer.
pub fn use_after_free() -> Module {
    let mut m = Module::new();
    let i64t = m.types.int(64);
    let mut b = FunctionBuilder::new(&mut m, "main", i64t, &[]);
    let p = b.malloc(i64t, Const::i64(4).into(), "p");
    b.store(p.into(), Const::i64(1111).into());
    b.free(p.into());
    // Reuse: this allocation takes p's memory (LIFO free list).
    let q = b.malloc(i64t, Const::i64(4).into(), "q");
    b.store(q.into(), Const::i64(2222).into());
    // Dangling read through p.
    let v = b.load(i64t, p.into(), "dangling");
    b.output(v.into());
    b.free(q.into());
    b.ret(Some(Const::i64(0).into()));
    let f = b.finish();
    m.entry = Some(f);
    m
}

/// Reads a heap slot that was never initialized.
pub fn uninit_read() -> Module {
    let mut m = Module::new();
    let i64t = m.types.int(64);
    let arr = m.types.unsized_array(i64t);
    let arrp = m.types.pointer(arr);
    let mut b = FunctionBuilder::new(&mut m, "main", i64t, &[]);
    let raw = b.malloc(i64t, Const::i64(4).into(), "p");
    let p = b.cast(CastOp::Bitcast, arrp, raw.into(), "pArr");
    let s0 = b.index_addr(p.into(), Const::i64(0).into(), "s0");
    b.store(s0.into(), Const::i64(7).into());
    // Slot 2 is never written.
    let s2 = b.index_addr(p.into(), Const::i64(2).into(), "s2");
    let v = b.load(i64t, s2.into(), "uninit");
    b.output(v.into());
    b.free(raw.into());
    b.ret(Some(Const::i64(0).into()));
    let f = b.finish();
    m.entry = Some(f);
    m
}

/// Exercises the string externals: a global string constant is copied
/// into a heap buffer with `strcpy`, compared with `strcmp`, measured with
/// `strlen`, and parsed with `atoi`.
pub fn string_play() -> Module {
    let mut m = Module::new();
    let i64t = m.types.int(64);
    let i8t = m.types.int(8);
    let str_arr = m.types.unsized_array(i8t);
    let strp = m.types.pointer(str_arr);

    let lit_ty = m.types.array(i8t, 8);
    let lit = m.add_global(Global {
        name: "lit".into(),
        ty: lit_ty,
        init: GlobalInit::Bytes(b"4215\0\0\0\0".to_vec()),
    });
    let lit2 = m.add_global(Global {
        name: "lit2".into(),
        ty: lit_ty,
        init: GlobalInit::Bytes(b"4215x\0\0\0".to_vec()),
    });

    let strlen_ty = m.types.function(i64t, vec![strp]);
    let strlen = m.declare_external("strlen", strlen_ty);
    let strcpy_ty = m.types.function(strp, vec![strp, strp]);
    let strcpy = m.declare_external("strcpy", strcpy_ty);
    let strcmp_ty = m.types.function(i64t, vec![strp, strp]);
    let strcmp = m.declare_external("strcmp", strcmp_ty);
    let atoi_ty = m.types.function(i64t, vec![strp]);
    let atoi = m.declare_external("atoi", atoi_ty);

    let mut b = FunctionBuilder::new(&mut m, "main", i64t, &[]);
    let raw = b.malloc(i8t, Const::i64(16).into(), "buf");
    let buf = b.cast(CastOp::Bitcast, strp, raw.into(), "bufStr");
    let src = b.cast(CastOp::Bitcast, strp, Operand::Global(lit), "src");
    let other = b.cast(CastOp::Bitcast, strp, Operand::Global(lit2), "other");
    let copied = b
        .call(
            Callee::External(strcpy),
            vec![buf.into(), src.into()],
            Some(strp),
            "copied",
        )
        .expect("dest");
    let len = b
        .call(
            Callee::External(strlen),
            vec![copied.into()],
            Some(i64t),
            "len",
        )
        .expect("len");
    b.output(len.into());
    let eq = b
        .call(
            Callee::External(strcmp),
            vec![buf.into(), src.into()],
            Some(i64t),
            "eq",
        )
        .expect("cmp");
    b.output(eq.into());
    let ne = b
        .call(
            Callee::External(strcmp),
            vec![buf.into(), other.into()],
            Some(i64t),
            "ne",
        )
        .expect("cmp");
    b.output(ne.into());
    let parsed = b
        .call(
            Callee::External(atoi),
            vec![buf.into()],
            Some(i64t),
            "parsed",
        )
        .expect("atoi");
    b.output(parsed.into());
    b.free(raw.into());
    b.ret(Some(Const::i64(0).into()));
    let f = b.finish();
    m.entry = Some(f);
    m
}

/// Sorts a heap array of `(key, payload)` structs with the external
/// `qsort` and an IR comparator function, then outputs an order checksum.
pub fn qsort_prog(n: i64) -> Module {
    let mut m = Module::new();
    let i64t = m.types.int(64);
    let pair = m.types.struct_type("pair", vec![i64t, i64t]);
    let pairp = m.types.pointer(pair);
    let void = m.types.void();
    let vp = m.types.void_ptr();

    // int64 cmp(pair* a, pair* b) — compares keys.
    let cmp = {
        let mut b = FunctionBuilder::new(&mut m, "cmpPair", i64t, &[("a", pairp), ("b", pairp)]);
        let a = b.param(0);
        let bb = b.param(1);
        let ka = b.field_addr(a.into(), 0, "ka");
        let va = b.load(i64t, ka.into(), "va");
        let kb = b.field_addr(bb.into(), 0, "kb");
        let vb = b.load(i64t, kb.into(), "vb");
        let d = b.bin(BinOp::Sub, i64t, va.into(), vb.into());
        b.ret(Some(d.into()));
        b.finish()
    };

    let qsort_ty = {
        let cmp_fn_ty = m.types.function(i64t, vec![pairp, pairp]);
        let cmp_ptr = m.types.pointer(cmp_fn_ty);
        m.types.function(void, vec![vp, i64t, i64t, cmp_ptr])
    };
    let qsort = m.declare_external("qsort", qsort_ty);

    let mut b = FunctionBuilder::new(&mut m, "main", i64t, &[]);
    let base = b.malloc(pair, Const::i64(n).into(), "base");
    let st = lcg_state(&mut b, 99);
    let arr = m_pair_array(&mut b, base, n, st);
    let _ = arr;
    let pair_sz = b.module.types.size_of(pair).expect("sized") as i64;
    let basev = b.cast(CastOp::Bitcast, vp, base.into(), "basev");
    let cmp_fn_ty = b.module.types.function(i64t, vec![pairp, pairp]);
    let cmp_ptr_ty = b.module.types.pointer(cmp_fn_ty);
    let cmp_ptr = b.copy(cmp_ptr_ty, Operand::Func(cmp), "cmpPtr");
    b.call(
        Callee::External(qsort),
        vec![
            basev.into(),
            Const::i64(n).into(),
            Const::i64(pair_sz).into(),
            cmp_ptr.into(),
        ],
        None,
        "",
    );
    // Verify sorted; output checksum of keys * rank.
    let sum = b.reg(i64t, "sum");
    b.assign(sum, Const::i64(0).into());
    let ok = b.reg(i64t, "ok");
    b.assign(ok, Const::i64(1).into());
    let pair_arr = b.module.types.unsized_array(pair);
    let pair_arr_p = b.module.types.pointer(pair_arr);
    let basea = b.cast(CastOp::Bitcast, pair_arr_p, base.into(), "basea");
    let prev = b.reg(i64t, "prev");
    b.assign(prev, Const::i64(i64::MIN).into());
    b.for_loop(Const::i64(0).into(), Const::i64(n).into(), |b, i| {
        let e = b.index_addr(basea.into(), i.into(), "e");
        let kp = b.field_addr(e.into(), 0, "kp");
        let k = b.load(i64t, kp.into(), "k");
        let lt = b.cmp(CmpPred::Slt, k.into(), prev.into());
        b.if_then(lt.into(), |b| {
            b.assign(ok, Const::i64(0).into());
        });
        b.assign(prev, k.into());
        let w = b.bin(BinOp::Mul, i64t, k.into(), i.into());
        let s = b.bin(BinOp::Add, i64t, sum.into(), w.into());
        b.assign(sum, s.into());
    });
    b.output(ok.into());
    b.output(sum.into());
    b.free(base.into());
    b.ret(Some(Const::i64(0).into()));
    let f = b.finish();
    m.entry = Some(f);
    m
}

fn m_pair_array(b: &mut FunctionBuilder<'_>, base: RegId, n: i64, st: RegId) -> RegId {
    let i64t = b.module.types.int(64);
    let base_ty = b.operand_ty(base.into());
    let pair_ty = b.module.types.pointee(base_ty).expect("ptr");
    let pair_arr = b.module.types.unsized_array(pair_ty);
    let pair_arr_p = b.module.types.pointer(pair_arr);
    let arr = b.cast(CastOp::Bitcast, pair_arr_p, base.into(), "arr");
    b.for_loop(Const::i64(0).into(), Const::i64(n).into(), |b, i| {
        let e = b.index_addr(arr.into(), i.into(), "e");
        let kp = b.field_addr(e.into(), 0, "kp");
        let k = lcg_mod(b, st, 1000);
        b.store(kp.into(), k.into());
        let vp2 = b.field_addr(e.into(), 1, "vp");
        let v = b.bin(BinOp::Mul, i64t, i.into(), Const::i64(7).into());
        b.store(vp2.into(), v.into());
    });
    arr
}

/// `main(argc, argv)` in the argv shape of Sec. 3.1.1: sums `atoi` of
/// every argument. Exercises the entry-wrapper argv replication.
pub fn argv_echo() -> Module {
    let mut m = Module::new();
    let i64t = m.types.int(64);
    let i8t = m.types.int(8);
    let str_arr = m.types.unsized_array(i8t);
    let strp = m.types.pointer(str_arr);
    let argv_arr = m.types.unsized_array(strp);
    let argvp = m.types.pointer(argv_arr);
    let atoi_ty = m.types.function(i64t, vec![strp]);
    let atoi = m.declare_external("atoi", atoi_ty);

    let mut b = FunctionBuilder::new(&mut m, "main", i64t, &[("argc", i64t), ("argv", argvp)]);
    let argc = b.param(0);
    let argv = b.param(1);
    let sum = b.reg(i64t, "sum");
    b.assign(sum, Const::i64(0).into());
    b.for_loop(Const::i64(0).into(), argc.into(), |b, i| {
        let slot = b.index_addr(argv.into(), i.into(), "slot");
        let s = b.load(strp, slot.into(), "arg");
        let v = b
            .call(Callee::External(atoi), vec![s.into()], Some(i64t), "v")
            .expect("atoi");
        let s2 = b.bin(BinOp::Add, i64t, sum.into(), v.into());
        b.assign(sum, s2.into());
    });
    b.output(sum.into());
    b.ret(Some(Const::i64(0).into()));
    let f = b.finish();
    m.entry = Some(f);
    m
}

/// Globals holding pointers to other globals (initializer `Ref`s), plus a
/// traversal — exercises global replication and shadow-global inits.
pub fn global_graph() -> Module {
    let mut m = Module::new();
    let i64t = m.types.int(64);
    let node = m.types.opaque_struct("gnode");
    let nodep = m.types.pointer(node);
    m.types.set_struct_body(node, vec![i64t, nodep]);

    // Three nodes chained: a -> bz -> c -> null.
    let c = m.add_global(Global {
        name: "gc".into(),
        ty: node,
        init: GlobalInit::Composite(vec![GlobalInit::Int(300), GlobalInit::Null]),
    });
    let bz = m.add_global(Global {
        name: "gb".into(),
        ty: node,
        init: GlobalInit::Composite(vec![GlobalInit::Int(200), GlobalInit::Ref(c)]),
    });
    let a = m.add_global(Global {
        name: "ga".into(),
        ty: node,
        init: GlobalInit::Composite(vec![GlobalInit::Int(100), GlobalInit::Ref(bz)]),
    });

    let mut b = FunctionBuilder::new(&mut m, "main", i64t, &[]);
    let cur = b.reg(nodep, "cur");
    let start = b.copy(nodep, Operand::Global(a), "start");
    b.assign(cur, start.into());
    let sum = b.reg(i64t, "sum");
    b.assign(sum, Const::i64(0).into());
    let head = b.block();
    let body = b.block();
    let exit = b.block();
    b.br(head);
    b.switch_to(head);
    let cnd = b.cmp(
        CmpPred::Ne,
        cur.into(),
        Const::Null { pointee: node }.into(),
    );
    b.cond_br(cnd.into(), body, exit);
    b.switch_to(body);
    let vp = b.field_addr(cur.into(), 0, "vp");
    let v = b.load(i64t, vp.into(), "v");
    let s = b.bin(BinOp::Add, i64t, sum.into(), v.into());
    b.assign(sum, s.into());
    let np = b.field_addr(cur.into(), 1, "np");
    let nxt = b.load(nodep, np.into(), "nxt");
    b.assign(cur, nxt.into());
    b.br(head);
    b.switch_to(exit);
    b.output(sum.into());
    b.ret(Some(Const::i64(0).into()));
    let f = b.finish();
    m.entry = Some(f);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpmr_vm::prelude::*;

    fn run(m: &Module) -> RunOutcome {
        run_with_limits(m, &RunConfig::default())
    }

    #[test]
    fn linked_list_sums_correctly() {
        let m = linked_list(10);
        let out = run(&m);
        assert_eq!(out.status, ExitStatus::Normal(0));
        assert_eq!(out.output, vec![45]); // 0+1+..+9
    }

    #[test]
    fn overflow_writer_in_bounds_is_clean() {
        let m = overflow_writer(8, 8);
        let out = run(&m);
        assert_eq!(out.status, ExitStatus::Normal(0));
        assert_eq!(out.output, vec![40]); // victim intact: 8 * 5
    }

    #[test]
    fn overflow_writer_out_of_bounds_corrupts_silently_without_dpmr() {
        // Without DPMR the overflow corrupts the victim but the program
        // completes "successfully" — the motivating failure mode.
        let m = overflow_writer(8, 12);
        let out = run(&m);
        assert_eq!(out.status, ExitStatus::Normal(0));
        assert_ne!(out.output, vec![40], "victim was corrupted");
    }

    #[test]
    fn pointer_chase_is_golden_clean_and_deterministic() {
        let n = 12i64;
        let rounds = 3i64;
        let m = pointer_chase(n, rounds);
        assert!(dpmr_ir::verify::verify_module(&m).is_ok());
        let out = run(&m);
        assert_eq!(out.status, ExitStatus::Normal(0));
        // Spliced-out nodes (i % 3 == 1, i < n-1) leave the chain; each
        // round also folds in the scratch prefix sum 6*r.
        let chain_sum: i64 = (0..n).filter(|i| !(i % 3 == 1 && *i < n - 1)).sum();
        let scratch_sum: i64 = (0..rounds).map(|r| 6 * r).sum();
        assert_eq!(
            out.output,
            vec![(rounds * chain_sum + scratch_sum) as u64, rounds as u64]
        );
        assert_eq!(out.output, run(&m).output, "bit-identical replay");
    }

    #[test]
    fn use_after_free_reads_new_data() {
        let m = use_after_free();
        let out = run(&m);
        assert_eq!(out.status, ExitStatus::Normal(0));
        assert_eq!(out.output, vec![2222], "dangling read sees reused memory");
    }

    #[test]
    fn string_play_outputs() {
        let m = string_play();
        let out = run(&m);
        assert_eq!(out.status, ExitStatus::Normal(0));
        assert_eq!(out.output[0], 4); // strlen("4215")
        assert_eq!(out.output[1], 0); // equal strings
        assert_ne!(out.output[2], 0); // different strings
        assert_eq!(out.output[3], 4215); // atoi
    }

    #[test]
    fn qsort_prog_sorts() {
        let m = qsort_prog(24);
        let out = run(&m);
        assert_eq!(out.status, ExitStatus::Normal(0));
        assert_eq!(out.output[0], 1, "array is sorted");
    }

    #[test]
    fn global_graph_traverses_global_pointers() {
        let m = global_graph();
        let out = run(&m);
        assert_eq!(out.status, ExitStatus::Normal(0));
        assert_eq!(out.output, vec![600]);
    }

    #[test]
    fn argv_echo_runs_with_args() {
        // Feed argv through the VM by building the arrays in global memory
        // at a separate harness level; here just verify the module builds
        // and verifies.
        let m = argv_echo();
        assert!(dpmr_ir::verify::verify_module(&m).is_ok());
    }
}
