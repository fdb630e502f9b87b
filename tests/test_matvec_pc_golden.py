"""Golden simulated-timing pins for the producer-consumer matvec.

Every cell runs :func:`matvec_producer_consumer` directly on the
10-site, 4-locale, 8-core ``sim`` set-up of ``tests/test_resilience.py``
and compares, with ``==``, what the discrete-event simulation is a pure
function of: the simulated elapsed time, the message/byte totals, the
stall time, the per-phase cost-ledger totals, the recovery counters,
and a sha256 of the result's bytes.  Any change to the yields a handshake issues (their
order, their durations, or the zero-delay waits between them) moves at
least one of these figures, so the table proves a refactor of the
pipeline is behaviour-preserving on both handshake policies.

The grid is {plain, fault-free ``ResilienceConfig()``, three seeded
chaos plans} x ``work_stealing`` in {False, True} x block width
k in {1, 3}, plus one crash plan that must raise the same typed error.
"""

import hashlib

import pytest

import repro
from repro import telemetry
from repro.basis import SpinBasis
from repro.distributed import DistributedVector, enumerate_states
from repro.distributed.matvec_pc import matvec_producer_consumer
from repro.errors import FaultError
from repro.operators.compile import compile_expression
from repro.resilience import FaultPlan, ResilienceConfig
from repro.runtime import Cluster, laptop_machine
from repro.telemetry import Telemetry

#: the typed error the one-shot crash plan ends in (retry budget exhausted)
CRASH_ERROR = "FaultError"

COUNTERS = (
    "recovery.retransmits",
    "recovery.checksum_rejects",
    "recovery.duplicates_discarded",
    "fault.timeouts",
)

#: Small chunks and buffers: several chunks per producer and several
#: handoffs per destination, so buffers are reused (flag waits and ack
#: waits really block) and work stealing changes the schedule.
KNOBS = dict(batch_size=16, buffer_capacity=8)

#: config name -> (FaultPlan kwargs or None, pass ResilienceConfig());
#: the plans are the seeded chaos menu of ``tests/test_resilience.py``
CONFIGS = {
    "plain": (None, False),
    "resilient": (None, True),
    "drop_delay": (dict(seed=11, drop=0.05, delay=0.2, max_delay=1e-4), False),
    "dup_corrupt": (dict(seed=12, duplicate=0.06, corrupt=0.03), False),
    "straggler": (
        dict(seed=13, drop=0.03, duplicate=0.03, corrupt=0.02, delay=0.1,
             max_delay=5e-5, stragglers={1: 2.0}),
        False,
    ),
}
CRASH_PLAN = dict(seed=14, crashes={2: 1e-5})


@pytest.fixture(scope="module")
def setup():
    dbasis, _ = enumerate_states(
        Cluster(4, laptop_machine(cores=8)),
        SpinBasis(10, hamming_weight=5),
        use_weight_shortcut=True,
    )
    op = compile_expression(repro.heisenberg_chain(10), dbasis.n_sites)
    xs = {
        1: DistributedVector.full_random(dbasis, seed=7),
        3: DistributedVector.full_random(dbasis, seed=7, columns=3),
    }
    return dbasis, op, xs


def run_cell(setup, config, work_stealing, k):
    dbasis, op, xs = setup
    spec, resilient = CONFIGS[config]
    tele = Telemetry.enabled(trace=False)
    with telemetry.use(tele):
        y, report = matvec_producer_consumer(
            op, dbasis, xs[k], **KNOBS,
            work_stealing=work_stealing,
            faults=FaultPlan(**spec) if spec is not None else None,
            resilience=ResilienceConfig() if resilient else None,
        )
    snap = tele.metrics.snapshot()
    ledger = report.ledger
    return {
        "elapsed": report.elapsed,
        "messages": report.messages,
        "bytes_sent": report.bytes_sent,
        "stall_time": report.extras["stall_time"],
        "ledger": {phase: ledger.total(phase) for phase in ledger.phases},
        "counters": {name: snap.counter_total(name) for name in COUNTERS},
        "sha256": hashlib.sha256(
            b"".join(part.tobytes() for part in y.parts)
        ).hexdigest(),
    }


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("work_stealing", [False, True])
@pytest.mark.parametrize("config", list(CONFIGS))
def test_pc_sim_timings_pinned(setup, config, work_stealing, k):
    assert run_cell(setup, config, work_stealing, k) == GOLDEN[
        (config, work_stealing, k)
    ]


def test_pc_crash_plan_raises_pinned_error(setup):
    dbasis, op, xs = setup
    with pytest.raises(FaultError) as info:
        matvec_producer_consumer(
            op, dbasis, xs[1], **KNOBS, faults=FaultPlan(**CRASH_PLAN)
        )
    assert type(info.value).__name__ == CRASH_ERROR


# Recorded from the earlier two-copy pipeline (a plain and a self-healing
# copy of the protocol).  A change here is a change of simulated
# behaviour, not a re-baseline.
GOLDEN = {('plain', False, 1): {'elapsed': 0.00011710662500000001,
                       'messages': 205,
                       'bytes_sent': 22400,
                       'stall_time': 0.00028023900000000016,
                       'ledger': {'generate': 0.0011277,
                                  'stall': 0.0002802390000000001,
                                  'search+accum': 0.00020999999999999995},
                       'counters': {'recovery.retransmits': 0,
                                    'recovery.checksum_rejects': 0,
                                    'recovery.duplicates_discarded': 0,
                                    'fault.timeouts': 0},
                       'sha256': '3a144d3ba0bb50cb3efa5958f5f066ff86cd3873595438c9565dd5a7602f739d'},
 ('plain', False, 3): {'elapsed': 0.0001175846749999999,
                       'messages': 205,
                       'bytes_sent': 44800,
                       'stall_time': 0.0002821991999999991,
                       'ledger': {'generate': 0.0011305,
                                  'stall': 0.00028219919999999905,
                                  'search+accum': 0.00021279999999999997},
                       'counters': {'recovery.retransmits': 0,
                                    'recovery.checksum_rejects': 0,
                                    'recovery.duplicates_discarded': 0,
                                    'fault.timeouts': 0},
                       'sha256': '5ae9d30f7d3cf79bf71646b3bcecf299dde0a2a2440124a0eb4f39ebdab119d5'},
 ('plain', True, 1): {'elapsed': 0.00011559722500000001,
                      'messages': 205,
                      'bytes_sent': 22400,
                      'stall_time': 0.000259,
                      'ledger': {'generate': 0.0011277,
                                 'stall': 0.000259,
                                 'search+accum': 0.00021},
                      'counters': {'recovery.retransmits': 0,
                                   'recovery.checksum_rejects': 0,
                                   'recovery.duplicates_discarded': 0,
                                   'fault.timeouts': 0},
                      'sha256': '861c7e3fa5e40497ca7d93ef0af990fcc415b3340b6ce4b0da84739023deb6f7'},
 ('plain', True, 3): {'elapsed': 0.00011615087499999994,
                      'messages': 205,
                      'bytes_sent': 44800,
                      'stall_time': 0.00026115999999999927,
                      'ledger': {'generate': 0.0011305,
                                 'stall': 0.00026115999999999927,
                                 'search+accum': 0.00021279999999999997},
                      'counters': {'recovery.retransmits': 0,
                                   'recovery.checksum_rejects': 0,
                                   'recovery.duplicates_discarded': 0,
                                   'fault.timeouts': 0},
                      'sha256': 'e9f936accaad0509aba862dfef3b2435a2b8d35687b31b8b2cd9af84effbbfdc'},
 ('resilient', False, 1): {'elapsed': 0.00011821342499999983,
                           'messages': 205,
                           'bytes_sent': 22400,
                           'stall_time': 0.000296818999999999,
                           'ledger': {'generate': 0.0011282599999999992,
                                      'stall': 0.00029681899999999906,
                                      'search+accum': 0.00021055999999999996},
                           'counters': {'recovery.retransmits': 0,
                                        'recovery.checksum_rejects': 0,
                                        'recovery.duplicates_discarded': 0,
                                        'fault.timeouts': 0},
                           'sha256': '08ec46f9fb4407f228e140c1d575d715c72cad7bf82526325a83b7ab56a8b197'},
 ('resilient', False, 3): {'elapsed': 0.0001196414749999999,
                           'messages': 205,
                           'bytes_sent': 44800,
                           'stall_time': 0.0002994087999999991,
                           'ledger': {'generate': 0.0011316199999999998,
                                      'stall': 0.0002994087999999991,
                                      'search+accum': 0.00021392},
                           'counters': {'recovery.retransmits': 0,
                                        'recovery.checksum_rejects': 0,
                                        'recovery.duplicates_discarded': 0,
                                        'fault.timeouts': 0},
                           'sha256': '940f3c4ffd6150e661cefd51e5f4b6ac4fb00bcf64122062569c89df138c9f17'},
 ('resilient', True, 1): {'elapsed': 0.00011569562499999984,
                          'messages': 205,
                          'bytes_sent': 22400,
                          'stall_time': 0.0002753519999999992,
                          'ledger': {'generate': 0.0011282599999999992,
                                     'stall': 0.00027535199999999916,
                                     'search+accum': 0.00021056000000000004},
                          'counters': {'recovery.retransmits': 0,
                                       'recovery.checksum_rejects': 0,
                                       'recovery.duplicates_discarded': 0,
                                       'fault.timeouts': 0},
                          'sha256': '0893eb13a542679f51eecf206b43fa3dff0b5d9b8cf1b5946ade475525cb4e10'},
 ('resilient', True, 3): {'elapsed': 0.00011634767499999993,
                          'messages': 205,
                          'bytes_sent': 44800,
                          'stall_time': 0.00027813599999999925,
                          'ledger': {'generate': 0.0011316199999999998,
                                     'stall': 0.00027813599999999925,
                                     'search+accum': 0.00021391999999999998},
                          'counters': {'recovery.retransmits': 0,
                                       'recovery.checksum_rejects': 0,
                                       'recovery.duplicates_discarded': 0,
                                       'fault.timeouts': 0},
                          'sha256': '39b6ae57274fbeec62f72682d2bde43c4f1cd02dba3263796986989763dbd170'},
 ('drop_delay', False, 1): {'elapsed': 0.20014398499154534,
                            'messages': 225,
                            'bytes_sent': 24736,
                            'stall_time': 1.1008493384729499,
                            'ledger': {'generate': 0.0011283183999999994,
                                       'stall': 1.1008493384729499,
                                       'search+accum': 0.00021058159999999998},
                            'counters': {'recovery.retransmits': 20.0,
                                         'recovery.checksum_rejects': 0,
                                         'recovery.duplicates_discarded': 7.0,
                                         'fault.timeouts': 20.0},
                            'sha256': 'a6fe7750333963b34cf15eaa5717a77ea61b3ff9b74c97cab242914423baaf41'},
 ('drop_delay', False, 3): {'elapsed': 0.2001565872752557,
                            'messages': 225,
                            'bytes_sent': 49056,
                            'stall_time': 1.1008499447494018,
                            'ledger': {'generate': 0.0011317264000000001,
                                       'stall': 1.1008499447494016,
                                       'search+accum': 0.0002139632},
                            'counters': {'recovery.retransmits': 20.0,
                                         'recovery.checksum_rejects': 0,
                                         'recovery.duplicates_discarded': 8.0,
                                         'fault.timeouts': 20.0},
                            'sha256': '4fef19e6f2227c25d6dfc5dab235039a63a1fc12b493aaba2a11067a86ce8603'},
 ('drop_delay', True, 1): {'elapsed': 0.20014398499154534,
                           'messages': 225,
                           'bytes_sent': 24736,
                           'stall_time': 1.1008493384729499,
                           'ledger': {'generate': 0.0011283183999999994,
                                      'stall': 1.1008493384729499,
                                      'search+accum': 0.00021058160000000004},
                           'counters': {'recovery.retransmits': 20.0,
                                        'recovery.checksum_rejects': 0,
                                        'recovery.duplicates_discarded': 7.0,
                                        'fault.timeouts': 20.0},
                           'sha256': 'a6fe7750333963b34cf15eaa5717a77ea61b3ff9b74c97cab242914423baaf41'},
 ('drop_delay', True, 3): {'elapsed': 0.3001192372806401,
                           'messages': 225,
                           'bytes_sent': 49152,
                           'stall_time': 1.150817913331096,
                           'ledger': {'generate': 0.0011317288,
                                      'stall': 1.150817913331096,
                                      'search+accum': 0.0002139576},
                           'counters': {'recovery.retransmits': 20.0,
                                        'recovery.checksum_rejects': 0,
                                        'recovery.duplicates_discarded': 7.0,
                                        'fault.timeouts': 20.0},
                           'sha256': 'd84994c449e1ac9ebda68a4342b8594066834b998a0bb183521a9319cf104401'},
 ('dup_corrupt', False, 1): {'elapsed': 0.10011810342500008,
                             'messages': 211,
                             'bytes_sent': 23152,
                             'stall_time': 0.3002786812000001,
                             'ledger': {'generate': 0.0011282787999999993,
                                        'stall': 0.3002786812000001,
                                        'search+accum': 0.00021060999999999996},
                             'counters': {'recovery.retransmits': 6.0,
                                          'recovery.checksum_rejects': 6.0,
                                          'recovery.duplicates_discarded': 12.0,
                                          'fault.timeouts': 6.0},
                             'sha256': '2d6086292e4aa3d698692ed81caa31f8a65d7f932330c7c6b13101a104300c34'},
 ('dup_corrupt', False, 3): {'elapsed': 0.10009462287500002,
                             'messages': 210,
                             'bytes_sent': 46080,
                             'stall_time': 0.25028446820000005,
                             'ledger': {'generate': 0.001131652,
                                        'stall': 0.25028446820000005,
                                        'search+accum': 0.0002139896},
                             'counters': {'recovery.retransmits': 5.0,
                                          'recovery.checksum_rejects': 5.0,
                                          'recovery.duplicates_discarded': 8.0,
                                          'fault.timeouts': 5.0},
                             'sha256': '89cf8da156beb8028bb92cf5bafb0cc8489fa68182b5798934cab4d1bdfa2489'},
 ('dup_corrupt', True, 1): {'elapsed': 0.05011152642500003,
                            'messages': 211,
                            'bytes_sent': 23072,
                            'stall_time': 0.30026892880000006,
                            'ledger': {'generate': 0.0011282767999999993,
                                       'stall': 0.3002689288000001,
                                       'search+accum': 0.00021060840000000001},
                            'counters': {'recovery.retransmits': 6.0,
                                         'recovery.checksum_rejects': 6.0,
                                         'recovery.duplicates_discarded': 11.0,
                                         'fault.timeouts': 6.0},
                            'sha256': 'a0a7f4155a26dac50b29969114a2776401fe695226104a165250e6350056aaba'},
 ('dup_corrupt', True, 3): {'elapsed': 0.050112196675,
                            'messages': 211,
                            'bytes_sent': 46144,
                            'stall_time': 0.30027160480000004,
                            'ledger': {'generate': 0.0011316536,
                                       'stall': 0.30027160480000004,
                                       'search+accum': 0.0002140168},
                            'counters': {'recovery.retransmits': 6.0,
                                         'recovery.checksum_rejects': 6.0,
                                         'recovery.duplicates_discarded': 11.0,
                                         'fault.timeouts': 6.0},
                            'sha256': 'c456a0e885a7e92bcf205e34a821a7759f3e397654208abb3e621c00b7c6f871'},
 ('straggler', False, 1): {'elapsed': 0.15015647587301356,
                           'messages': 215,
                           'bytes_sent': 23584,
                           'stall_time': 0.5503960300396711,
                           'ledger': {'generate': 0.001405531999999999,
                                      'stall': 0.5503960300396711,
                                      'search+accum': 0.0002623323999999999},
                           'counters': {'recovery.retransmits': 10.0,
                                        'recovery.checksum_rejects': 4.0,
                                        'recovery.duplicates_discarded': 8.0,
                                        'fault.timeouts': 10.0},
                           'sha256': '8d498dd6e7f514d15db43b40a799aa08c74ae6fd2138411cd120e3e05b6df119'},
 ('straggler', False, 3): {'elapsed': 0.2501138560961733,
                           'messages': 217,
                           'bytes_sent': 47168,
                           'stall_time': 0.6503912541992762,
                           'ledger': {'generate': 0.0014097536000000001,
                                      'stall': 0.6503912541992762,
                                      'search+accum': 0.000266632},
                           'counters': {'recovery.retransmits': 12.0,
                                        'recovery.checksum_rejects': 5.0,
                                        'recovery.duplicates_discarded': 13.0,
                                        'fault.timeouts': 12.0},
                           'sha256': '36e3fce9b486d80836822eec70ced848523a0d56229a17f5d88cbd74164f33e3'},
 ('straggler', True, 1): {'elapsed': 0.15011105887301363,
                          'messages': 216,
                          'bytes_sent': 23584,
                          'stall_time': 0.5503823683037236,
                          'ledger': {'generate': 0.001405527599999999,
                                     'stall': 0.5503823683037236,
                                     'search+accum': 0.00026233440000000005},
                          'counters': {'recovery.retransmits': 11.0,
                                       'recovery.checksum_rejects': 4.0,
                                       'recovery.duplicates_discarded': 8.0,
                                       'fault.timeouts': 11.0},
                          'sha256': 'c68288c9da7f40d6960dc98a86b1d53da3a429555e504ea87470be91fdbaa527'},
 ('straggler', True, 3): {'elapsed': 0.15011596718921963,
                          'messages': 217,
                          'bytes_sent': 47264,
                          'stall_time': 0.6503792556668427,
                          'ledger': {'generate': 0.0014097592,
                                     'stall': 0.6503792556668428,
                                     'search+accum': 0.0002665504},
                          'counters': {'recovery.retransmits': 12.0,
                                       'recovery.checksum_rejects': 5.0,
                                       'recovery.duplicates_discarded': 7.0,
                                       'fault.timeouts': 12.0},
                          'sha256': 'a093b1587a26c2732687b4caa0eeb2f8a3ee5a8a8cab07b27d1b624cad69966c'}}
