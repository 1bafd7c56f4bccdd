//! `simsh` — a line-oriented driver for the simulated installation.
//!
//! Reads commands from stdin (scriptable through a pipe), letting you
//! boot machines, run the paper's workloads, type at their terminals and
//! migrate them by hand:
//!
//! ```text
//! $ cargo run -p bench --bin simsh <<'EOF'
//! boot brick
//! boot schooner
//! install brick /bin/testprog testprog
//! spawn brick /bin/testprog
//! run 50000
//! type 0 hello world
//! run 50000
//! screen 0
//! dumpproc brick 2
//! restart schooner 2 brick
//! run 100000
//! ps schooner
//! EOF
//! ```
//!
//! Commands: `boot <host> [isa2]`, `install <host> <path> <workload>`,
//! `spawn <host> <path>`, `type <tty> <text>`, `keys <tty> <chars>`,
//! `eof <tty>`, `screen <tty>`, `run <slices>`, `ps <host>`, `load`,
//! `time <host>`, `ktrace <host> [n]`, `dumpproc <host> <pid>`,
//! `restart <host> <pid> [dumphost]`, `migrate <pid> <from> <to>
//! [cmdhost]`, `cat <host> <path>`, `help`, `quit`. Workloads: `testprog`, `editor`, `pidprog`,
//! `envprog`, `waiter`, `hog:<rounds>`, `openclose:<n>`, `chdir:<n>`.

use std::io::BufRead;

use m68vm::{assemble, IsaLevel};
use pmig::commands::RestartArgs;
use pmig::proto::{migrate_proto, Protocol};
use pmig::{api, workloads, RemoteRunner};
use simnet::{FaultPlan, FaultSite, FaultSpec};
use sysdefs::{Credentials, Gid, Pid, Uid};
use ukernel::{KernelConfig, World};

fn user() -> Credentials {
    Credentials::user(Uid(100), Gid(10))
}

fn workload_source(name: &str) -> Option<String> {
    if let Some(rounds) = name.strip_prefix("hog:") {
        return Some(workloads::cpu_hog_program(rounds.parse().ok()?));
    }
    if let Some(n) = name.strip_prefix("openclose:") {
        return Some(workloads::openclose_program(n.parse().ok()?));
    }
    if let Some(n) = name.strip_prefix("chdir:") {
        return Some(workloads::chdir_program(n.parse().ok()?));
    }
    Some(
        match name {
            "testprog" => workloads::TEST_PROGRAM,
            "editor" => workloads::EDITOR_PROGRAM,
            "pidprog" => workloads::PID_TEMPFILE_PROGRAM,
            "envprog" => workloads::ENV_DEPENDENT_PROGRAM,
            "waiter" => workloads::WAITING_PARENT_PROGRAM,
            _ => return None,
        }
        .to_string(),
    )
}

const HELP: &str = "\
commands:
  boot <host> [isa2]              add a machine (default ISA-1 / 68010)
  install <host> <path> <wl>      assemble a workload onto a machine
  spawn <host> <path>             start a program on a fresh terminal
  run <slices>                    advance the simulation
  type <tty> <text...>            type a line at a terminal
  keys <tty> <chars>              type raw characters (no newline)
  eof <tty>                       close a terminal (EOF to readers)
  screen <tty>                    show what a terminal displays
  ps <host>                       process listing
  load                            per-host run-queue depth
  time <host>                     the machine's virtual clock
  ktrace <host> [n]               newest syscall trace records (all if no n)
  cat <host> <path>               print a file
  dumpproc <host> <pid>           run dumpproc there
  restart <host> <pid> [dumphost] run restart there (new terminal)
  migrate <pid> <from> <to> [on] [--proto eager|precopy|demand]
                                  run the migrate command; --proto picks
                                  the live-migration protocol engine and
                                  reports downtime vs total
  fault seed <n>                  (re)seed the fault-injection plan
  fault add <site> <host|*> <from_us> <until_us> <permille> <hits>
                                  arm an injection rule; sites: nfs rsh
                                  middump enospc page-fetch
  fault list                      show the plan and its counters
  reap <host>                     sweep orphaned dump files in /usr/tmp
  help                            this text
  quit                            leave
workloads: testprog editor pidprog envprog waiter hog:<n> openclose:<n> chdir:<n>";

fn main() {
    let mut world = World::new(KernelConfig::paper());
    let stdin = std::io::stdin();
    println!("simsh — simulated Sun UNIX 3.0 with process migration. `help` lists commands.");
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        let result = dispatch(&mut world, &parts);
        if let Err(msg) = result {
            println!("error: {msg}");
        }
        if parts[0] == "quit" {
            break;
        }
    }
}

fn machine_by_name(world: &World, name: &str) -> Result<usize, String> {
    world
        .find_machine(name)
        .ok_or_else(|| format!("no machine `{name}` (boot it first)"))
}

fn dispatch(world: &mut World, parts: &[&str]) -> Result<(), String> {
    match parts {
        ["help"] => println!("{HELP}"),
        ["quit"] => {}
        ["boot", name] | ["boot", name, "isa1"] => {
            let id = world.add_machine(name, IsaLevel::Isa1);
            println!("machine {id}: {name} (68010), NFS-mounted as /n/{name}");
        }
        ["boot", name, "isa2"] => {
            let id = world.add_machine(name, IsaLevel::Isa2);
            println!("machine {id}: {name} (68020), NFS-mounted as /n/{name}");
        }
        ["install", host, path, wl] => {
            let m = machine_by_name(world, host)?;
            let src = workload_source(wl).ok_or_else(|| format!("unknown workload `{wl}`"))?;
            let obj = assemble(&src).map_err(|e| e.to_string())?;
            world
                .install_program(m, path, &obj)
                .map_err(|e| e.to_string())?;
            println!("installed {wl} as {host}:{path}");
        }
        ["spawn", host, path] => {
            let m = machine_by_name(world, host)?;
            let (tty, _handle) = world.add_terminal(m);
            let pid = world
                .spawn_vm_proc(m, path, Some(tty), user())
                .map_err(|e| e.to_string())?;
            println!("pid {pid} on {host}, terminal tty{tty}");
        }
        ["run", n] => {
            let n: u64 = n.parse().map_err(|_| "bad slice count".to_string())?;
            let outcome = world.run_slices(n);
            println!("ran ({outcome:?})");
        }
        ["type", tty, rest @ ..] => {
            let tty: u32 = tty.parse().map_err(|_| "bad tty".to_string())?;
            world
                .terminal(tty)
                .type_input(&format!("{}\n", rest.join(" ")));
            println!("typed");
        }
        ["keys", tty, chars] => {
            let tty: u32 = tty.parse().map_err(|_| "bad tty".to_string())?;
            world.terminal(tty).type_input(chars);
            println!("typed raw");
        }
        ["eof", tty] => {
            let tty: u32 = tty.parse().map_err(|_| "bad tty".to_string())?;
            world.terminal(tty).with(|t| t.close());
            println!("closed");
        }
        ["screen", tty] => {
            let tty: u32 = tty.parse().map_err(|_| "bad tty".to_string())?;
            println!("--- tty{tty} ---");
            print!("{}", world.terminal(tty).output_text());
            println!("\n---------------");
        }
        ["ps", host] => {
            let m = machine_by_name(world, host)?;
            print!("{}", world.ps(m));
        }
        ["load"] => {
            for (m, depth) in world.run_queue_depths().into_iter().enumerate() {
                println!("{:<12} {:>4} runnable", world.machine(m).name, depth);
            }
        }
        ["time", host] => {
            let m = machine_by_name(world, host)?;
            println!("{}", world.machine(m).now);
        }
        ["ktrace", host] | ["ktrace", host, _] => {
            let m = machine_by_name(world, host)?;
            let last = match parts.get(2) {
                Some(n) => Some(n.parse().map_err(|_| "bad record count".to_string())?),
                None => None,
            };
            let k = &world.machine(m).ktrace;
            if k.is_empty() {
                println!("(no syscall records on {host} yet)");
            } else {
                print!("{}", k.render(last));
            }
        }
        ["cat", host, path] => {
            let m = machine_by_name(world, host)?;
            let bytes = world.host_read_file(m, path).map_err(|e| e.to_string())?;
            println!("{}", String::from_utf8_lossy(&bytes));
        }
        ["dumpproc", host, pid] => {
            let m = machine_by_name(world, host)?;
            let pid = Pid(pid.parse().map_err(|_| "bad pid".to_string())?);
            let status = api::run_dumpproc(world, m, pid, user()).map_err(|e| e.to_string())?;
            if status == 0 {
                let names = dumpfmt::dump_file_names(pid);
                println!("dumped: {} {} {}", names.a_out, names.files, names.stack);
            } else {
                println!("dumpproc failed with status {status}");
            }
        }
        ["restart", host, pid] | ["restart", host, pid, _] => {
            let m = machine_by_name(world, host)?;
            let dump_host = parts.get(3).map(|s| s.to_string());
            let pid = Pid(pid.parse().map_err(|_| "bad pid".to_string())?);
            let (tty, _handle) = world.add_terminal(m);
            let new_pid = api::run_restart(
                world,
                m,
                RestartArgs {
                    pid,
                    dump_host,
                    demand: false,
                },
                Some(tty),
                user(),
            )
            .map_err(|e| e.to_string())?;
            println!("restored as pid {new_pid} on {host}, terminal tty{tty}");
        }
        ["migrate", rest @ ..] if rest.len() >= 3 => {
            let mut rest: Vec<&str> = rest.to_vec();
            let mut proto = None;
            if let Some(i) = rest.iter().position(|a| *a == "--proto") {
                let name = *rest
                    .get(i + 1)
                    .ok_or_else(|| "--proto needs a protocol".to_string())?;
                proto =
                    Some(Protocol::parse(name).ok_or_else(|| {
                        format!("unknown protocol `{name}` (eager precopy demand)")
                    })?);
                rest.drain(i..=i + 1);
            }
            let [pid, from, to, on @ ..] = rest.as_slice() else {
                return Err("usage: migrate <pid> <from> <to> [on] [--proto p]".into());
            };
            let from_m = machine_by_name(world, from)?;
            let to_m = machine_by_name(world, to)?;
            let pid = Pid(pid.parse().map_err(|_| "bad pid".to_string())?);
            match proto {
                None => {
                    let cmd_m = match on.first() {
                        Some(h) => machine_by_name(world, h)?,
                        None => to_m,
                    };
                    let (tty, _handle) = world.add_terminal(cmd_m);
                    let new_pid = api::migrate_process(
                        world,
                        pid,
                        from_m,
                        to_m,
                        cmd_m,
                        Some(tty),
                        user(),
                        RemoteRunner::Rsh,
                    )
                    .map_err(|e| e.to_string())?;
                    println!("migrated: now pid {new_pid} on {to}");
                }
                Some(p) => {
                    let report = migrate_proto(world, pid, from_m, to_m, p, user())
                        .map_err(|e| e.to_string())?;
                    println!(
                        "{}: status {} survivor {:?} pid {:?}",
                        p.name(),
                        report.status,
                        report.survivor,
                        report.new_pid
                    );
                    println!(
                        "downtime {:.1} ms, total {:.1} ms, {} rounds, {} precopied, {} fetched",
                        report.downtime_us as f64 / 1_000.0,
                        report.total_us as f64 / 1_000.0,
                        report.rounds,
                        report.pages_precopied,
                        report.pages_fetched
                    );
                }
            }
        }
        ["fault", "seed", n] => {
            let seed: u64 = n.parse().map_err(|_| "bad seed".to_string())?;
            world.faults = FaultPlan::seeded(seed);
            println!("fault plan reseeded ({seed}); rules cleared");
        }
        ["fault", "add", site, host, from_us, until_us, per_mille, hits] => {
            let site = FaultSite::parse(site).ok_or_else(|| {
                format!("unknown site `{site}` (nfs rsh middump enospc page-fetch)")
            })?;
            let machine = match *host {
                "*" => None,
                name => Some(machine_by_name(world, name)?),
            };
            let spec = FaultSpec {
                site,
                machine,
                from_us: from_us.parse().map_err(|_| "bad from_us".to_string())?,
                until_us: until_us.parse().map_err(|_| "bad until_us".to_string())?,
                per_mille: per_mille.parse().map_err(|_| "bad permille".to_string())?,
                max_hits: hits.parse().map_err(|_| "bad hit budget".to_string())?,
                hits: 0,
            };
            world.faults = std::mem::take(&mut world.faults).with(spec);
            println!(
                "armed: {} on {host} in [{from_us}us,{until_us}us) {per_mille}/1000, budget {hits}",
                site.name()
            );
        }
        ["fault", "list"] => {
            let plan = &world.faults;
            if plan.is_empty() {
                println!("no fault rules armed (seed {})", plan.seed);
            } else {
                for s in &plan.specs {
                    let host = match s.machine {
                        Some(m) => world.machine(m).name.clone(),
                        None => "*".into(),
                    };
                    println!(
                        "{:<8} {host:<10} [{},{})us {}/1000 hits {}/{}",
                        s.site.name(),
                        s.from_us,
                        s.until_us,
                        s.per_mille,
                        s.hits,
                        s.max_hits
                    );
                }
                println!("injected so far: {}", plan.injected);
            }
        }
        ["reap", host] => {
            let m = machine_by_name(world, host)?;
            let reaped = world.host_reap_orphan_dumps(m);
            if reaped.is_empty() {
                println!("no orphaned dump files on {host}");
            } else {
                println!("reaped from {host}:/usr/tmp: {}", reaped.join(" "));
            }
        }
        _ => return Err(format!("unknown command `{}` (try help)", parts.join(" "))),
    }
    Ok(())
}
