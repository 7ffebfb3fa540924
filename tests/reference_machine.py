"""A brute-force reference machine for memory contents, race verdicts and counters.

It runs the random programs of ``test_race_tracker.py`` and
``test_batched_blocks.py`` one lane at a time in plain Python, with no numpy
and no engine code, and gives what the engine must give: the two global
buffers, the strict ``SimError`` JSON, the permissive race warnings and the
``MetricsReport`` JSON.

A program is a list of instructions, each a tuple:

- ``("gload", buf, pattern)`` and ``("sload", pattern)`` load the register
  from global buffer ``buf`` or from the block's shared array. Active lanes
  get the value; inactive lanes get 0, as a masked load leaves them.
- ``("gstore", buf, pattern, k)`` and ``("sstore", pattern, k)`` store the
  register plus ``k``.
- ``("barrier",)``, ``("from_block", b, body)`` (a uniform branch taken by
  blocks ``b`` and up) and ``("if", m, c, then, else)`` (lanes whose global id
  modulo ``m`` is below ``c`` run ``then``, the others ``else``) and
  ``("range", lo, hi, then, else)`` (lanes whose block-local thread id ``t``
  has ``lo <= t < hi`` run ``then``, one contiguous lane range in a block).
- ``("launch", n, grid, block, program)`` launches one child grid per active
  thread whose global id is below ``n``, under a branch on that condition.

The register starts as the thread's global id. Every memory instruction, branch,
barrier and launch is one step of the block; a store's "register plus k" is
one thread step per active lane, counted before the store.

An address pattern names an index per lane (``lane_address``); every
pattern but ``raw`` wraps it into the array. A memory instruction first
checks its active lanes' indices in lane order and stops the launch with
``OutOfBounds`` at the first one outside the array, before it counts
anything but a store's thread steps.

Counters are counted warp by warp over the active lanes, as the engine
counts them before it checks races: a global access costs the distinct
128-byte segments each warp touches (4-byte elements), a shared access the
largest number of distinct addresses a warp maps to one of 32 4-byte banks,
less one (lanes on one address are a broadcast), and an ``if`` one divergence
event per warp whose active lanes disagree. Each barrier and each child grid
counts one. Every count also goes to the kernel's entry, which exists from
its first memory instruction, thread step, barrier, child launch or
diverging branch on.

Races come from full histories. Within a block, each address keeps every
(thread, kind) access since the last barrier; across blocks, each global
address keeps the set of (block, kind) accesses of the grid. A load conflicts with
another thread's store, a store with another thread's load or store, in the
interval or in another block of the grid. A conflict names the acting thread
and the earliest other writer in the interval, else the earliest other reader,
else -1 for another block. Two lanes of one store to one address name the
first two such lanes. A load reports its first lane that conflicts within the
block, then its first lane that conflicts with another block; a store reports
its first conflicting lane, then its lowest address stored by two lanes. In
permissive mode a lane's store lands unless a higher thread stored the address
earlier in the interval, so stores resolve in ascending global id.
"""

SHARED_LEN = 48
SHARED_WIDTH = 4  # bytes per shared element; shared race addresses are byte offsets
SHARED_NAME = "shared@0"
KERNEL = "run_program"
WARP_SIZE = 32
GLOBAL_WIDTH = 4  # bytes per global element
SEGMENT_BYTES = 128
BANKS = 32
BANK_WIDTH = 4  # bytes
COUNTERS = (
    "global_transactions",
    "divergence_events",
    "bank_conflict_extra_cycles",
    "barriers_executed",
    "thread_steps",
    "child_launches",
)


def lane_address(pattern, gid, tid, block, nthreads, length):
    """The index one lane's pattern names in an array of ``length`` elements."""
    kind, k, table = pattern
    if kind == "shift":
        return (gid + k) % length
    if kind == "stride":
        return (gid * k) % length
    if kind == "reverse":
        return (length - 1 - gid) % length
    if kind == "broadcast":
        return k % length
    if kind == "table":
        return (table[tid % len(table)] + k * block) % length
    if kind == "step":  # k + tid * d, a run of step d = table[0] >= 2
        return (k + tid * table[0]) % length
    if kind == "wrap":  # k + tid % h, h = table[0]: lanes 0..h-1 and h..2h-1 index one run
        return (k + tid % table[0]) % length
    if kind == "raw":  # "table" unwrapped: may fall outside the array
        return table[tid % len(table)] + k * block
    return (tid + k) % length  # "local": the same addresses in every block


class Abort(Exception):
    """A launch-aborting error, as the ``SimError.to_json()`` it stands for."""

    def __init__(self, json):
        super().__init__(json["message"])
        self.json = json


def run(case, mode):
    """(x, y, error JSON or None, race warnings, metrics JSON) of one case in ``mode``."""
    blocks, threads, x, y, program = case
    machine = Machine({"x": list(x), "y": list(y)}, mode)
    error = None
    try:
        machine.grid(blocks, threads, program)
    except Abort as e:
        error = e.json
    return machine.memory["x"], machine.memory["y"], error, machine.warnings, machine.metrics()


class Machine:
    def __init__(self, memory, mode):
        self.memory = memory
        self.mode = mode
        self.warnings = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.counted = False  # whether the kernel has its per-kernel entry yet

    def count(self, counter, n):
        self.counts[counter] += n
        self.counted = True

    def metrics(self):
        return {**self.counts, "per_kernel": {KERNEL: dict(self.counts)} if self.counted else {}}

    def grid(self, blocks, threads, program):
        cross = {}  # (buffer, address) -> {(block, kind)} for the whole grid
        for b in range(blocks):
            Block(self, b, threads, cross).run(program)


class Block:
    def __init__(self, machine, b, threads, cross):
        self.machine = machine
        self.b = b
        self.threads = threads
        self.cross = cross
        self.history = {}  # (buffer, address) -> [(thread, kind)] since the last barrier
        self.shared = [0] * SHARED_LEN
        self.reg = [b * threads + t for t in range(threads)]
        self.step = 0

    def gid(self, t):
        return self.b * self.threads + t

    def coord(self, gid):
        t = gid - self.b * self.threads
        return {
            "block_idx": [self.b, 0, 0],
            "thread_idx": [t, 0, 0],
            "global_linear_id": gid,
            "warp_id": t // WARP_SIZE,
            "lane": t % WARP_SIZE,
        }

    def abort(self, kind, message, gids, buffer):
        """Raise the error whose JSON names ``gids``, with the message text a ``SimError`` composes."""
        threads = [self.coord(g) for g in gids]
        parts = [message, f"kernel={KERNEL}"] + ([f"buffer={buffer}"] if buffer is not None else [])
        parts.append(f"step={self.step}")
        for c in threads:
            (bx, by, bz), (tx, ty, tz) = c["block_idx"], c["thread_idx"]
            parts.append(
                f"at block({bx}, {by}, {bz}) thread({tx}, {ty}, {tz}) "
                f"(gid={c['global_linear_id']}, warp={c['warp_id']}, lane={c['lane']})"
            )
        raise Abort({
            "kind": kind,
            "message": "; ".join(parts),
            "threads": threads,
            "buffer": buffer,
            "step": self.step,
            "kernel": KERNEL,
        })

    def race(self, name, addr, a, other):
        msg = f"conflicting accesses to {name!r} address {addr} without an intervening barrier"
        if self.machine.mode == "strict":
            self.abort("DataRace", msg, [a] if other < 0 else [a, other], name)
        self.machine.warnings.append(
            f"{msg} (threads {a} and {other}, kernel {KERNEL}, block {self.b}, step {self.step})"
        )

    def run(self, program):
        self.execute(program, list(range(self.threads)))

    def execute(self, instrs, active):
        for ins in instrs:
            op = ins[0]
            if op in ("gload", "gstore"):
                k = ins[3] if op == "gstore" else None
                self.access(ins[1], self.machine.memory[ins[1]], 1, ins[2], active, k)
            elif op in ("sload", "sstore"):
                k = ins[2] if op == "sstore" else None
                self.access(SHARED_NAME, self.shared, SHARED_WIDTH, ins[1], active, k)
            elif op == "barrier":
                if len(active) != self.threads:
                    missing = min(set(range(self.threads)) - set(active))
                    self.abort(
                        "BarrierDivergence",
                        "barrier under a partial mask: some threads of the block cannot reach it",
                        [self.gid(missing)],
                        None,
                    )
                self.machine.count("barriers_executed", 1)
                self.history = {}
                self.step += 1
            elif op == "from_block":
                if self.b >= ins[1]:
                    self.execute(ins[2], active)
            elif op in ("if", "range"):
                _, a, b, then_body, else_body = ins
                self.step += 1
                if op == "if":  # global id modulo a below b
                    taken = [t for t in active if self.gid(t) % a < b]
                else:  # block-local thread ids from a up to b
                    taken = [t for t in active if a <= t < b]
                rest = [t for t in active if t not in taken]
                self.diverge(taken, rest)
                if taken:
                    self.execute(then_body, taken)
                if rest:
                    self.execute(else_body, rest)
            else:
                _, launchers, grid, block, program = ins
                self.step += 1
                taken = [t for t in active if self.gid(t) < launchers]
                self.diverge(taken, [t for t in active if self.gid(t) >= launchers])
                if taken:
                    for _ in taken:
                        self.machine.count("child_launches", 1)
                        self.machine.grid(grid, block, program)
                    self.step += 1

    def diverge(self, taken, rest):
        """Count the warps split by a branch (the interpreter puts each launch under one too)."""
        diverged = len({t // WARP_SIZE for t in taken} & {t // WARP_SIZE for t in rest})
        if diverged:
            self.machine.count("divergence_events", diverged)

    def access(self, name, data, unit, pattern, active, k):
        """One load (``k is None``) or store of the active lanes.

        A race address is the element index times ``unit``: element indices
        for global buffers, byte offsets for shared memory. Only global
        buffers keep a history across blocks; each block has its own shared
        memory.
        """
        if k is not None:
            self.machine.count("thread_steps", len(active))
        lanes = [
            (t, self.gid(t), i, i * unit)
            for t in active
            for i in [lane_address(pattern, self.gid(t), t, self.b, self.threads, len(data))]
        ]
        for _, g, i, _ in lanes:
            if not 0 <= i < len(data):
                noun = "buffer" if unit == 1 else "shared array"
                self.abort("OutOfBounds", f"index {i} outside {noun} {name!r} of length {len(data)}", [g], name)
        if unit == 1:
            self.machine.count("global_transactions", len({(t // WARP_SIZE, i * GLOBAL_WIDTH // SEGMENT_BYTES)
                                                           for t, _, i, _ in lanes}))
        else:
            self.machine.count("bank_conflict_extra_cycles", self.bank_extra_cycles(lanes))
        kind = "r" if k is None else "w"
        self.check(name, lanes, kind)
        if k is None:
            values = {t: data[i] for t, _, i, _ in lanes}
            self.reg = [values.get(t, 0) for t in range(self.threads)]
        else:
            for t, g, i, addr in lanes:
                if not any(k2 == "w" and other > g for other, k2 in self.history.get((name, addr), [])):
                    data[i] = self.reg[t] + k
        for _, g, i, addr in lanes:
            self.history.setdefault((name, addr), []).append((g, kind))
            if unit == 1:
                self.cross.setdefault((name, addr), set()).add((self.b, kind))
        self.step += 1

    @staticmethod
    def bank_extra_cycles(lanes):
        """Sum over warps of the most distinct byte addresses on one bank, less one."""
        addresses = {}  # warp -> distinct byte addresses
        for t, _, _, addr in lanes:
            addresses.setdefault(t // WARP_SIZE, set()).add(addr)
        extra = 0
        for distinct in addresses.values():
            per_bank = {}
            for addr in distinct:
                bank = addr // BANK_WIDTH % BANKS
                per_bank[bank] = per_bank.get(bank, 0) + 1
            extra += max(per_bank.values()) - 1
        return extra

    def earliest_other(self, name, addr, g, kind):
        """The first other thread to access ``addr`` as ``kind`` in the interval, or None."""
        for other, k in self.history.get((name, addr), []):
            if k == kind and other != g:
                return other
        return None

    def other_block(self, name, addr, kinds):
        return any(b != self.b and k in kinds for b, k in self.cross.get((name, addr), []))

    def check(self, name, lanes, kind):
        """Report this instruction's races against the accesses before it."""
        if kind == "r":
            for _, g, _, addr in lanes:
                other = self.earliest_other(name, addr, g, "w")
                if other is not None:
                    self.race(name, addr, g, other)
                    break
            for _, g, _, addr in lanes:
                if self.other_block(name, addr, "w"):
                    self.race(name, addr, g, -1)
                    break
            return
        for _, g, _, addr in lanes:
            other = self.earliest_other(name, addr, g, "w")
            if other is None:
                other = self.earliest_other(name, addr, g, "r")
            if other is not None or self.other_block(name, addr, "rw"):
                self.race(name, addr, g, -1 if other is None else other)
                break
        by_address = {}
        for _, g, _, addr in lanes:
            by_address.setdefault(addr, []).append(g)
        repeated = [addr for addr, gs in by_address.items() if len(gs) > 1]
        if repeated:
            addr = min(repeated)
            self.race(name, addr, by_address[addr][0], by_address[addr][1])
