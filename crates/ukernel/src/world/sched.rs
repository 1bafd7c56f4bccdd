//! The scheduler: wait channels, the wake pass, the ready index's
//! pick and the one run loop.

use simnet::RshPhase;
use simtime::{SimDuration, SimTime};
use sysdefs::{Pid, Signal};

use super::World;
use crate::file::FileKind;
use crate::machine::MachineId;
use crate::proc::{Body, ExitInfo, Proc, ProcState};
use crate::signal::deliver_pending;
use crate::sys::args::{SysRetval, Syscall, SyscallResult};
use crate::sys::{dispatch, vmabi};

/// Why a run loop stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every machine is idle: no runnable, wakeable or sleeping process.
    Idle,
    /// The slice budget ran out first.
    BudgetExhausted,
}

/// What the wake pass does for one blocked process: the verdict of
/// [`World::wake_action`], carried out by [`World::apply_wake`].
#[derive(Debug)]
enum WakeAction {
    /// The wait condition does not hold.
    Nothing,
    /// A signal, terminal, pipe or child condition holds: requeue the
    /// process so it retries its blocked call.
    Wake,
    /// The sleep's deadline has passed.
    CompleteSleep,
    /// The remote command finished: its status, server and pid there.
    CompleteRemote(u32, MachineId, Pid),
    /// The page fetch's deadline has passed: the faulting address.
    CompletePageFetch(u32),
}

/// What a blocked process sleeps on, as in 4.2BSD's `sleep(chan)`: a
/// state change there calls [`World::wakeup`] on the channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum WaitChan {
    /// A pipe or socket byte queue on a machine. Its readers and
    /// writers share the channel; the wake check tells them apart.
    Queue(MachineId, crate::machine::QueueId),
    /// A terminal, by world id.
    Tty(u32),
    /// A command `(server, pid)` whose exit or overlay a caller awaits.
    Remote(MachineId, u32),
}

/// What a slice runs for its process once signals and any retried
/// call are done.
#[derive(Clone, Copy)]
enum Quantum {
    Vm,
    Native,
    Nothing,
}

impl Quantum {
    fn of(body: &Body) -> Quantum {
        match body {
            Body::Vm(_) => Quantum::Vm,
            Body::Native(_) => Quantum::Native,
            Body::Idle => Quantum::Nothing,
        }
    }
}

/// [`World::complete_pending`] on a process already in hand: writes the
/// VM registers or stores the native reply, clears the pending record
/// and, since the parked call finished outside dispatch (sleep expiry,
/// remote completion, EINTR), cuts its trace record at `now`.
fn finish_pending(p: &mut Proc, ktrace: &mut crate::ktrace::Ktrace, now: SimTime, ret: SysRetval) {
    let sc = p.pending_syscall.take();
    p.restart_pc = None;
    let name = sc.as_ref().map(|s| s.name());
    let result = match ret.val {
        Ok(v) => crate::ktrace::KtraceResult::Ok(v),
        Err(e) => crate::ktrace::KtraceResult::Err(e),
    };
    match &mut p.body {
        Body::Vm(vm) => {
            if let Some(sc) = sc {
                vmabi::writeback(&mut vm.cpu, &mut vm.mem, &sc, &ret);
            }
        }
        Body::Native(native) => native.reply(ret),
        Body::Idle => {}
    }
    if let Some(name) = name {
        ktrace.push(
            now,
            p.pid,
            name,
            crate::ktrace::KtraceEvent::Complete { result },
        );
    }
}

impl World {
    /// Clears a due alarm and posts `SIGALRM` (nudging the target so a
    /// runnable process takes it promptly).
    fn fire_alarm(&mut self, mid: MachineId, pid: Pid) {
        let m = &mut self.machines[mid];
        if let Some(p) = m.proc_mut(pid) {
            p.alarm_at = None;
            p.post_signal(Signal::SIGALRM);
        }
        m.nudge(pid);
    }

    /// Judges one process's wake condition without touching anything:
    /// the wake pass applies the verdict with [`World::apply_wake`], and
    /// the debug-build pick audit asks the same question of every
    /// blocked process, so the two cannot disagree about what "should
    /// wake" means.
    fn wake_action(&self, mid: MachineId, pid: Pid) -> WakeAction {
        let Some(p) = self.proc_ref(mid, pid) else {
            return WakeAction::Nothing;
        };
        let signal_wake = p.signal_pending()
            && !matches!(p.state, ProcState::Stopped)
            && self.signal_would_act(mid, pid);
        let wake_if = |cond: bool| {
            if cond {
                WakeAction::Wake
            } else {
                WakeAction::Nothing
            }
        };
        match &p.state {
            ProcState::Sleeping { until } if self.machines[mid].now >= *until => {
                WakeAction::CompleteSleep
            }
            ProcState::Sleeping { .. } => wake_if(signal_wake),
            ProcState::TtyWait { tty } => {
                wake_if(self.terminals[*tty as usize].with(|t| t.read_ready()) || signal_wake)
            }
            ProcState::PipeWait => wake_if(signal_wake || self.pipe_ready(mid, pid)),
            ProcState::ChildWait => {
                let m = &self.machines[mid];
                let has_zombie = m
                    .procs
                    .values()
                    .any(|c| c.ppid == pid && matches!(c.state, ProcState::Zombie { .. }));
                let has_children = m.procs.values().any(|c| c.ppid == pid);
                wake_if(has_zombie || !has_children || signal_wake)
            }
            ProcState::RemoteWait { server, pid: rp } => {
                match self.finished.get(&(*server, rp.as_u32())) {
                    Some(info) => WakeAction::CompleteRemote(info.status, *server, *rp),
                    None if self.overlaid.contains_key(&(*server, rp.as_u32())) => {
                        WakeAction::CompleteRemote(0, *server, *rp)
                    }
                    None => WakeAction::Nothing,
                }
            }
            ProcState::PageWait { until, addr } if self.machines[mid].now >= *until => {
                WakeAction::CompletePageFetch(*addr)
            }
            // The signal interrupts the wait; if the process survives
            // delivery it replays the faulting instruction and re-parks.
            ProcState::PageWait { .. } => wake_if(signal_wake),
            // SIGCONT/SIGKILL handling happens at kill time.
            ProcState::Stopped | ProcState::Runnable | ProcState::Zombie { .. } => {
                WakeAction::Nothing
            }
        }
    }

    /// Carries out a [`World::wake_action`] verdict other than
    /// `CompleteSleep`, which [`World::service_machine`] carries out
    /// itself.
    fn apply_wake(&mut self, mid: MachineId, pid: Pid, action: WakeAction) {
        match action {
            WakeAction::Nothing => {}
            WakeAction::Wake => self.machines[mid].make_runnable(pid),
            WakeAction::CompleteSleep => {
                unreachable!("the wake pass completes a due sleep on the lookup that finds it")
            }
            WakeAction::CompletePageFetch(addr) => self.complete_page_fetch(mid, pid, addr),
            WakeAction::CompleteRemote(status, server, rp) => {
                // rsh teardown: sync clocks and charge the teardown
                // phase; local and daemon completions skip it (the
                // daemon marker is remembered per waiter).
                let server_now = self.machines[server].now;
                let teardown = server != mid && !self.daemon_waiters.remove(&(mid, pid.as_u32()));
                let m = &mut self.machines[mid];
                m.now = m.now.max(server_now);
                if teardown {
                    let c = RshPhase::Teardown.cost(&self.config.cost);
                    m.charge_sys(Some(pid), c);
                }
                self.complete_pending(
                    mid,
                    pid,
                    SysRetval::with_data(status, rp.as_u32().to_be_bytes().to_vec()),
                );
                self.machines[mid].make_runnable(pid);
            }
        }
    }

    /// Would delivering the pending signals do anything (i.e. are they
    /// not all ignored)? Used to decide whether to interrupt a sleep.
    fn signal_would_act(&self, mid: MachineId, pid: Pid) -> bool {
        let Some(p) = self.proc_ref(mid, pid) else {
            return false;
        };
        let deliverable = p.sig_pending & !p.user.sigs.blocked;
        for sig in Signal::ALL {
            if deliverable & (1 << (sig.number() - 1)) == 0 {
                continue;
            }
            let disp = p.user.sigs.dispositions[(sig.number() - 1) as usize];
            let acts = match disp {
                sysdefs::Disposition::Ignore => false,
                sysdefs::Disposition::Handler(_) => true,
                sysdefs::Disposition::Default => !matches!(
                    sig.default_action(),
                    sysdefs::DefaultAction::Ignore | sysdefs::DefaultAction::Continue
                ),
            };
            if acts {
                return true;
            }
        }
        false
    }

    /// Is the pipe/socket a `PipeWait` process is parked on ready for
    /// its pending operation?
    fn pipe_ready(&self, mid: MachineId, pid: Pid) -> bool {
        let Some(p) = self.proc_ref(mid, pid) else {
            return false;
        };
        let (fd, is_read, len) = match &p.pending_syscall {
            Some(Syscall::Read { fd, len, .. }) => (*fd, true, *len),
            Some(Syscall::Write { fd, bytes }) => (*fd, false, bytes.len()),
            _ => return true, // Unknown op: wake and let the retry sort it out.
        };
        let Some(idx) = p.user.fds.get(fd).copied().flatten() else {
            return true;
        };
        let m = &self.machines[mid];
        let Some(f) = m.files.get(idx) else {
            return true;
        };
        let buf = match &f.kind {
            FileKind::Pipe { id, .. } => m.pipes.get(*id).and_then(|x| x.as_ref()),
            FileKind::Socket { id, side } => {
                let b = m.sockets.get(*id).and_then(|x| x.as_ref());
                b.map(|s| {
                    if is_read {
                        &s.bufs[1 - *side]
                    } else {
                        &s.bufs[*side]
                    }
                })
            }
            _ => return true,
        };
        let Some(buf) = buf else {
            return true;
        };
        if is_read {
            !buf.data.is_empty() || buf.writers == 0
        } else {
            buf.readers == 0 || buf.write_room(len).is_some()
        }
    }

    /// Delivers a completed blocked call: write VM registers or store the
    /// native reply, then clear the pending record.
    pub(crate) fn complete_pending(&mut self, mid: MachineId, pid: Pid, ret: SysRetval) {
        let m = &mut self.machines[mid];
        if let Some(p) = m.procs.get_mut(&pid.as_u32()) {
            finish_pending(p, &mut m.ktrace, m.now, ret);
        }
    }

    /// One machine's wake pass: drain its poke set and due-timer heap,
    /// fire due alarms, then judge and apply exactly those processes'
    /// wake conditions, in pid order. Only poked or timed-out processes
    /// are looked at; the debug-build pick audit checks that nothing
    /// else could have woken. The candidates gather in the reused
    /// scratch buffer, so a pass allocates nothing. A due sleep, every
    /// ticker's wake and [`World::wake_action`]'s `CompleteSleep`, is
    /// judged and completed here on the one process-table lookup that
    /// finds it; every other verdict goes to [`World::apply_wake`].
    fn service_machine(&mut self, mid: MachineId) {
        let m = &mut self.machines[mid];
        if !m.wake_due() {
            return;
        }
        let mut scratch = std::mem::take(&mut self.wake_scratch);
        scratch.clear();
        scratch.extend(m.wait_pending.iter().copied());
        m.wait_pending.clear();
        m.take_due_timers(&mut scratch);
        scratch.sort_unstable();
        scratch.dedup();
        // Alarms first: a fired SIGALRM may turn a blocked process
        // signal-wakeable for the second phase. Due-ness is judged on
        // `alarm_at` itself, so stale timer heap entries (lazy deletion)
        // fire nothing.
        let now = self.machines[mid].now;
        for &raw in &scratch {
            let pid = Pid(raw);
            let due = self.machines[mid]
                .proc_ref(pid)
                .and_then(|p| p.alarm_at)
                .map(|t| now >= t)
                .unwrap_or(false);
            if due {
                self.fire_alarm(mid, pid);
            }
        }
        for &raw in &scratch {
            let pid = Pid(raw);
            let m = &mut self.machines[mid];
            let now = m.now;
            match m.procs.get_mut(&raw) {
                Some(p) if matches!(p.state, ProcState::Sleeping { until } if now >= until) => {
                    finish_pending(p, &mut m.ktrace, now, SysRetval::ok(0));
                    p.state = ProcState::Runnable;
                    if !m.run_queue.contains(&pid) {
                        m.run_queue.push_back(pid);
                    }
                }
                Some(_) => {
                    let action = self.wake_action(mid, pid);
                    self.apply_wake(mid, pid, action);
                }
                None => {}
            }
        }
        self.wake_scratch = scratch;
    }

    /// Re-keys a machine in the global ready index after its clock,
    /// run queue or timer heap changed: its leaf takes its clock, or
    /// empties without work. The key only ever *underestimates* the
    /// machine's clock (clocks are monotonic), so the index minimum is
    /// a lower bound that [`World::next_ready`] tightens at the root.
    fn mark_ready(&mut self, mid: MachineId) {
        let m = &mut self.machines[mid];
        let key = m.has_work().then_some(m.now);
        self.ready.set(mid, key);
    }

    /// Peeks the ready machine with the smallest clock (the lowest
    /// MachineId breaks ties, which keeps dual runs bit-identical). A
    /// root with a stale key is re-keyed and the match replayed, and a
    /// machine without work leaves the index. With a `deadline`,
    /// returns `None` once the earliest candidate's true clock has
    /// reached it.
    fn next_ready(&mut self, deadline: Option<SimTime>) -> Option<MachineId> {
        loop {
            let (key, mid) = self.ready.min()?;
            let m = &mut self.machines[mid];
            if !m.has_work() {
                self.ready.set(mid, None);
                continue;
            }
            let now = m.now;
            if key != now {
                self.ready.set(mid, Some(now));
                continue;
            }
            if let Some(d) = deadline {
                if now >= d {
                    return None;
                }
            }
            return Some(mid);
        }
    }

    /// Entry into a run loop. Terminals are the one piece of sim state
    /// the host mutates without a `World` hook (`TtyHandle` shares the
    /// `Rc<RefCell<Terminal>>` directly, so typed input and closes are
    /// invisible to us), so wake every terminal channel once per run
    /// call; `wakeup` evicts the readers that have moved on. Every
    /// other host entry point (`host_post_signal`, `host_reap`, …) pokes
    /// at the mutation site — enforced statically by simlint's
    /// `wake-poke` rule — which is what lets this pass be O(terminal
    /// sleepers) instead of the conservative every-blocked-process
    /// sweep it replaced.
    fn enter_run(&mut self) {
        let ttys: Vec<WaitChan> = self
            .sleepers
            .range(WaitChan::Tty(0)..=WaitChan::Tty(u32::MAX))
            .map(|(&chan, _)| chan)
            .collect();
        for chan in ttys {
            self.wakeup(chan);
        }
    }

    /// Marks one process for wake evaluation at the machine's next
    /// service. Over-poking is always safe (a false condition evaluates
    /// to no action); *missing* a poke is the only hazard, so every
    /// state mutation that can flip a wake condition true calls this or
    /// [`World::wakeup`], and the debug-build pick audit panics on a miss.
    pub(crate) fn poke_proc(&mut self, mid: MachineId, pid: Pid) {
        self.machines[mid].wait_pending.insert(pid.as_u32());
        self.wake_queue.insert(mid);
    }

    /// Records that `pid` on `mid`, just blocked, sleeps on `chan`.
    pub(crate) fn sleep_on(&mut self, chan: WaitChan, mid: MachineId, pid: Pid) {
        self.sleepers
            .entry(chan)
            .or_default()
            .insert((mid, pid.as_u32()));
    }

    /// Pokes every process asleep on `chan`, whose state may have just
    /// changed. Eviction is lazy: a pipe or terminal sleeper that has
    /// left `PipeWait` or `TtyWait` is forgotten unpoked, and the rest
    /// stay registered; a command ends once, so a `Remote` channel is
    /// forgotten whole.
    pub(crate) fn wakeup(&mut self, chan: WaitChan) {
        let Some(mut set) = self.sleepers.remove(&chan) else {
            return;
        };
        let machines = &self.machines;
        set.retain(|&(mid, pid)| {
            let state = machines[mid].procs.get(&pid).map(|p| &p.state);
            match chan {
                WaitChan::Queue(..) => matches!(state, Some(ProcState::PipeWait)),
                WaitChan::Tty(_) => matches!(state, Some(ProcState::TtyWait { .. })),
                WaitChan::Remote(..) => true,
            }
        });
        for &(mid, pid) in &set {
            self.poke_proc(mid, Pid(pid));
        }
        if !set.is_empty() && !matches!(chan, WaitChan::Remote(..)) {
            self.sleepers.insert(chan, set);
        }
    }

    /// Runs one scheduling slice on a machine: a wake pass, a clock
    /// jump to its earliest timer when nothing is runnable, then the
    /// next runnable process's signals, retried call and quantum.
    fn step_machine(&mut self, mid: MachineId) {
        self.service_machine(mid);
        if self.machines[mid].run_queue.is_empty() {
            // Jump the clock to the earliest timer, if any.
            let Some(t) = self.machines[mid].next_deadline() else {
                return;
            };
            self.machines[mid].now = self.machines[mid].now.max(t);
            self.service_machine(mid);
        }
        let Some(pid) = self.machines[mid].run_queue.pop_front() else {
            return;
        };
        // One lookup starts the slice: whether the process runs, takes
        // a signal or retries a call, and what its quantum runs.
        let start = self.proc_ref(mid, pid).and_then(|p| {
            p.state.is_runnable().then(|| {
                (
                    p.signal_pending(),
                    p.pending_syscall.clone(),
                    Quantum::of(&p.body),
                )
            })
        });
        let Some((signalled, mut retry, mut quantum)) = start else {
            return;
        };
        // Context switch.
        if self.machines[mid].last_run != Some(pid) {
            let c = self.config.cost.context_switch();
            let m = &mut self.machines[mid];
            m.stats.ctx_switches += 1;
            m.charge_sys(None, c);
            m.last_run = Some(pid);
        }
        // Signals first — this is where a posted SIGDUMP takes effect,
        // in the context of the dumped process. With none deliverable,
        // delivery would find nothing to take. A delivery can end the
        // pending call (EINTR) or replace the body, so the slice looks
        // again after one.
        if signalled {
            if !deliver_pending(self, mid, pid) {
                return;
            }
            (retry, quantum) = self
                .proc_ref(mid, pid)
                .map_or((None, Quantum::Nothing), |p| {
                    (p.pending_syscall.clone(), Quantum::of(&p.body))
                });
        }
        // Retry a blocked system call; a completed retry looks again.
        if let Some(sc) = retry {
            match dispatch(self, mid, pid, &sc) {
                SyscallResult::Done(ret) => {
                    self.complete_pending(mid, pid, ret);
                }
                SyscallResult::Blocked => return, // Re-parked.
                SyscallResult::Gone => return,
            }
            quantum = self
                .proc_ref(mid, pid)
                .map_or(Quantum::Nothing, |p| Quantum::of(&p.body));
        }
        let user = match quantum {
            Quantum::Vm => self.run_vm_quantum(mid, pid),
            Quantum::Native => {
                self.run_native_quantum(mid, pid);
                SimDuration::ZERO
            }
            Quantum::Nothing => SimDuration::ZERO,
        };
        // Charge the quantum's user time and requeue the process if it
        // is still runnable, on one lookup.
        let m = &mut self.machines[mid];
        let requeue = m
            .charge_user_to(pid, user)
            .is_some_and(|p| p.state.is_runnable());
        if requeue && !m.run_queue.contains(&pid) {
            m.run_queue.push_back(pid);
        }
    }

    /// Picks the machine to step next: service every poked machine, in
    /// MachineId order, refreshing its ready-index entry, then pop the
    /// ready index. Debug builds audit every pick.
    fn pick_next(&mut self, deadline: Option<SimTime>) -> Option<MachineId> {
        while let Some(mid) = self.wake_queue.pop_first() {
            self.service_machine(mid);
            self.mark_ready(mid);
        }
        let picked = self.next_ready(deadline);
        #[cfg(debug_assertions)]
        self.audit_pick(deadline, picked);
        picked
    }

    /// The debug-build wake audit: checks the scheduler's acceleration
    /// state (ready index, timer heaps, pokes) against the process table
    /// once the wake queue has drained. It panics, naming machine, pid,
    /// wait state and condition, when
    ///
    /// * (a) a blocked process has a poke-delivered wake condition that
    ///   holds (signal, terminal, pipe or socket, child, remote
    ///   completion), as judged by [`World::wake_action`] itself: some
    ///   mutation skipped its poke;
    /// * (b) a sleep, page-wait or alarm deadline has no timer-heap
    ///   entry;
    /// * (c) a machine with a runnable process or a live deadline has no
    ///   key at or below its clock in its ready-tree leaf;
    /// * (d) `picked` is not the (clock, id) minimum among machines with
    ///   work before `deadline`, or an inner node of the ready tree
    ///   does not hold the minimum of its children;
    /// * (e) a machine's process table breaks its own invariants (see
    ///   [`crate::ProcTable`]): a live pid unreachable from its home
    ///   slot, a slot whose pid is missing from the pid order, an order
    ///   that is not strictly ascending, or a pid held in two slots.
    ///
    /// A due deadline with its timer entry is legal: a wake pass can
    /// move the clock past deadlines after taking its due timers (a
    /// remote completion syncs to the server's clock and charges the rsh
    /// teardown), and the machine's next slice delivers them.
    #[cfg(debug_assertions)]
    fn audit_pick(&self, deadline: Option<SimTime>, picked: Option<MachineId>) {
        let mut best: Option<(SimTime, MachineId)> = None;
        if let Some(node) = self.ready.stale_node() {
            panic!("wake audit: ready-tree node {node} is not the minimum of its children");
        }
        for (mid, m) in self.machines.iter().enumerate() {
            if let Some(fault) = m.procs.broken_invariant() {
                panic!(
                    "wake audit: machine {mid} ({}) process table: {fault}",
                    m.name
                );
            }
            for p in m.procs.values() {
                let (pid, state) = (p.pid.as_u32(), &p.state);
                let wait_until = match *state {
                    ProcState::Sleeping { until } | ProcState::PageWait { until, .. } => {
                        Some(until)
                    }
                    _ => None,
                };
                for t in [wait_until, p.alarm_at].into_iter().flatten() {
                    assert!(
                        m.has_timer(p.pid, t),
                        "wake audit: machine {mid} ({}) pid {pid} in {state:?}: deadline {t} has no timer entry",
                        m.name
                    );
                }
                // A due deadline is legal once its timer entry is
                // checked above; any other verdict needed a poke.
                let action = self.wake_action(mid, p.pid);
                let condition = match (&action, state) {
                    (
                        WakeAction::Nothing
                        | WakeAction::CompleteSleep
                        | WakeAction::CompletePageFetch(_),
                        _,
                    ) => None,
                    (WakeAction::CompleteRemote(..), _) => Some("remote completion"),
                    _ if p.signal_pending() && self.signal_would_act(mid, p.pid) => {
                        Some("a deliverable signal")
                    }
                    (_, ProcState::TtyWait { .. }) => Some("terminal input"),
                    (_, ProcState::PipeWait) => Some("pipe or socket readiness"),
                    _ => Some("a child exit or reap"),
                };
                if let Some(condition) = condition {
                    panic!(
                        "wake audit: machine {mid} ({}) pid {pid} in {state:?}: {condition} holds ({action:?}) but no poke delivered it",
                        m.name
                    );
                }
            }
            if m.run_queue.is_empty() && !m.has_live_timer() {
                continue;
            }
            assert!(
                self.ready.key(mid).is_some_and(|k| k <= m.now),
                "wake audit: machine {mid} ({}) has work (run queue {:?}) but is missing from the ready index",
                m.name,
                m.run_queue
            );
            if deadline.is_none_or(|d| m.now < d) && best.is_none_or(|b| (m.now, mid) < b) {
                best = Some((m.now, mid));
            }
        }
        let expected = best.map(|(_, mid)| mid);
        assert_eq!(
            picked, expected,
            "wake audit: the ready index picked {picked:?}, but the (clock, id) minimum among machines with work is {expected:?}"
        );
    }

    /// The one run loop. Each slice picks the machine with work and the
    /// smallest clock before `deadline` and steps it. The loop ends
    /// when the pick finds no machine (`Idle`; clocks without work park
    /// at the deadline), before a slice once `done` holds, or when
    /// `max_slices` slices have run (both `BudgetExhausted`).
    fn run(
        &mut self,
        deadline: Option<SimTime>,
        max_slices: u64,
        mut done: impl FnMut(&World) -> bool,
    ) -> RunOutcome {
        self.enter_run();
        let mut outcome = RunOutcome::BudgetExhausted;
        for _ in 0..max_slices {
            if done(self) {
                break;
            }
            let Some(mid) = self.pick_next(deadline) else {
                if let Some(d) = deadline {
                    for m in self.machines.iter_mut() {
                        m.now = m.now.max(d);
                    }
                }
                outcome = RunOutcome::Idle;
                break;
            };
            self.slices += 1;
            self.step_machine(mid);
            // The slice may have advanced the clock, armed timers or
            // changed the run queue. A poke it emitted, or a timer due
            // at the new clock, needs a wake pass first, and the next
            // pick's drain runs one and re-keys; otherwise a pass would
            // find nothing, so re-key now.
            if self.machines[mid].wake_due() {
                self.wake_queue.insert(mid);
            } else {
                self.mark_ready(mid);
            }
        }
        // The host reads the world clock as the run call returns, and
        // that is when its next spawn happens.
        self.host_clock = self.clock();
        outcome
    }

    /// Runs until idle or until `max_slices` scheduling actions.
    pub fn run_slices(&mut self, max_slices: u64) -> RunOutcome {
        self.run(None, max_slices, |_| false)
    }

    /// Runs until the given process has exited, returning its record.
    pub fn run_until_exit(
        &mut self,
        mid: MachineId,
        pid: Pid,
        max_slices: u64,
    ) -> Option<ExitInfo> {
        let key = (mid, pid.as_u32());
        // Exit records are only ever added, so the map is probed again
        // only after a slice added one.
        let mut exits = None;
        self.run(None, max_slices, |w| {
            if exits == Some(w.finished.len()) {
                return false;
            }
            exits = Some(w.finished.len());
            w.finished.contains_key(&key)
        });
        self.finished.get(&key).cloned()
    }

    /// Runs until every machine's clock passes `deadline` or the world
    /// goes idle; clocks of machines without work park at the deadline.
    pub fn run_until_time(&mut self, deadline: SimTime, max_slices: u64) -> RunOutcome {
        self.run(Some(deadline), max_slices, |_| false)
    }
}

#[cfg(test)]
mod tests {
    use m68vm::{assemble, IsaLevel};
    use sysdefs::{Credentials, Pid};

    use super::{RunOutcome, WaitChan};
    use crate::{KernelConfig, ProcState, World};

    /// A world of `hosts` machines, named `node0`, `node1`, …
    fn world(hosts: usize) -> World {
        let mut w = World::new(KernelConfig::paper());
        for i in 0..hosts {
            w.add_machine(&format!("node{i}"), IsaLevel::Isa1);
        }
        w
    }

    fn has_chan(w: &World, pick: impl Fn(&WaitChan) -> bool) -> bool {
        w.sleepers.keys().any(pick)
    }

    #[test]
    fn remote_channels_empty_out_once_their_commands_exit() {
        let mut w = world(2);
        let callers: Vec<Pid> = (0..4)
            .map(|_| {
                w.spawn_native_proc(0, "burst", None, Credentials::root(), |sys| async move {
                    for _ in 0..3 {
                        let nap = |s: crate::Sys| async move {
                            s.sleep_us(5_000).await.unwrap();
                            0
                        };
                        sys.run_local("local", nap).await.unwrap();
                        sys.daemon_spawn("node1", "remote", nap).await.unwrap();
                    }
                    0
                })
            })
            .collect();
        w.run_slices(20);
        assert!(
            has_chan(&w, |c| matches!(c, WaitChan::Remote(..))),
            "the callers sleep on their commands: {:?}",
            w.sleepers
        );
        assert_eq!(w.run_slices(1_000_000), RunOutcome::Idle);
        for pid in callers {
            assert_eq!(
                w.finished.get(&(0, pid.as_u32())).map(|i| i.status),
                Some(0)
            );
        }
        assert!(w.sleepers.is_empty(), "{:?}", w.sleepers);
    }

    /// pipe() + fork(): the child blocks reading the empty pipe, the
    /// parent sleeps, writes four bytes, waits for the child and exits.
    const PIPE_PAIR: &str = r#"
start:  move.l  #42, d0     | pipe()
        trap    #0
        move.l  d0, d5
        and.l   #0xffff, d5 | read end
        move.l  d0, d6
        lsr.l   #16, d6     | write end
        move.l  #2, d0      | fork
        trap    #0
        tst.l   d0
        beq     child
        move.l  #150, d0    | parent: sleep 3 ms, then write
        move.l  #3000, d1
        trap    #0
        move.l  #4, d0
        move.l  d6, d1
        move.l  #buf, d2
        move.l  #4, d3
        trap    #0
        move.l  #7, d0      | wait() for the child
        move.l  #0, d1
        trap    #0
        move.l  #1, d0
        move.l  #0, d1
        trap    #0
child:  move.l  #3, d0      | read: blocks until the parent writes
        move.l  d5, d1
        move.l  #buf, d2
        move.l  #4, d3
        trap    #0
        move.l  #1, d0
        move.l  #0, d1
        trap    #0
        .bss
buf:    .space  4
"#;

    #[test]
    fn queue_channels_empty_out_once_both_ends_close() {
        let mut w = world(1);
        let obj = assemble(PIPE_PAIR).unwrap();
        w.install_program(0, "/bin/pair", &obj).unwrap();
        let parent = w
            .spawn_vm_proc(0, "/bin/pair", None, Credentials::root())
            .unwrap();
        let child = Pid(parent.as_u32() + 1);
        while !matches!(
            w.proc_ref(0, child).map(|p| &p.state),
            Some(ProcState::PipeWait)
        ) {
            assert_eq!(w.run_slices(1), RunOutcome::BudgetExhausted);
        }
        assert!(
            has_chan(&w, |c| matches!(c, WaitChan::Queue(..))),
            "the reader sleeps on the pipe: {:?}",
            w.sleepers
        );
        let info = w.run_until_exit(0, parent, 1_000_000).expect("exits");
        assert_eq!(info.status, 0);
        assert!(
            !has_chan(&w, |c| matches!(c, WaitChan::Queue(..))),
            "{:?}",
            w.sleepers
        );
    }

    #[test]
    fn a_blocked_terminal_reader_stays_registered_across_runs() {
        let mut w = world(1);
        let (tty, console) = w.add_terminal(0);
        let reader = w.spawn_native_proc(
            0,
            "reader",
            Some(tty),
            Credentials::root(),
            |sys| async move { sys.read(0, 16).await.map_or(1, |b| b.len() as u32) },
        );
        let registered = |w: &World| {
            w.sleepers
                .get(&WaitChan::Tty(tty))
                .is_some_and(|s| s.contains(&(0, reader.as_u32())))
        };
        assert_eq!(w.run_slices(1_000), RunOutcome::Idle);
        assert!(registered(&w), "{:?}", w.sleepers);
        // Each run call wakes the terminal channels; a reader still
        // blocked stays put.
        for _ in 0..3 {
            assert_eq!(w.run_slices(1_000), RunOutcome::Idle);
            assert!(registered(&w), "{:?}", w.sleepers);
        }
        console.type_input("ping\n");
        let info = w
            .run_until_exit(0, reader, 1_000)
            .expect("the read completes");
        assert_eq!(info.status, 5);
        // The next wakeup forgets the reader that has moved on.
        w.run_slices(1);
        assert!(w.sleepers.is_empty(), "{:?}", w.sleepers);
    }
}
