"""Chaos suite: callback delivery is byte-invisible to every trace.

Callback event delivery must be a pure kernel optimisation:
``tests.network_oracle.unbatched()`` carries every message of
:meth:`Network.send` and :meth:`Network.send_batch` on its own delivery
process, as before callback delivery, and two same-seed runs — one each
way — must be *byte-identical* in the fault-injector log and the Chrome
trace, and equal in every outcome scalar.  Fault-hook consultations
happen per message in destination order either way, so the injector's
RNG draws, drops, and duplicates cannot diverge.  CI asserts this
inside the chaos job (see ``.github/workflows/ci.yml``).
"""

import json

from tests.chaos.harness import assert_invariants, run_chaos
from tests.network_oracle import unbatched as unbatched_sends


class TestBatchingIdentity:
    def test_fault_log_and_outcome_identical(self, chaos_seed):
        batched = run_chaos(chaos_seed)
        with unbatched_sends():
            unbatched = run_chaos(chaos_seed)
        assert batched.plan == unbatched.plan
        assert batched.fault_log == unbatched.fault_log  # byte-identical
        assert batched.status == unbatched.status
        assert batched.completions == unbatched.completions
        assert batched.reschedules == unbatched.reschedules
        assert batched.makespan == unbatched.makespan
        assert batched.fault_counts == unbatched.fault_counts
        assert batched.tasks_executed == unbatched.tasks_executed
        assert_invariants(batched)

    def test_chrome_trace_byte_identical(self, chaos_seed):
        batched = run_chaos(chaos_seed, obs=True)
        with unbatched_sends():
            unbatched = run_chaos(chaos_seed, obs=True)
        assert batched.chrome_trace is not None
        assert batched.chrome_trace == unbatched.chrome_trace
        json.loads(batched.chrome_trace)  # still well-formed JSON
