#!/usr/bin/env python3
"""CI gates on bench results: each asserts a claimed win or a correctness
property of one bench's JSON.

Usage: tools/bench_gates.py GATE FILE

FILE is the bench's own `--json` document or a merged BENCH_streams.json
(bench/run_all.sh).  GATE is one of: coalescing, batching, striping,
manystream, mux, openloop.  The manystream and mux gates need the full
sweep's points (run the bench without --quick); a gate whose point is
missing fails.  Exit status is nonzero when the gate fails.
"""

import json
import sys


def coalescing(data):
    fdr = next(p for p in data['profiles'] if p['profile'] == 'fdr')
    p256 = next(pt for pt in fdr['points'] if pt['size'] == 256)
    print(f"256 B on/off gain on fdr: {p256['gain']:.2f}x")
    assert p256['gain'] >= 1.25, "coalescing win at 256 B regressed below 25%"


def batching(data):
    fdr = next(p for p in data['profiles'] if p['profile'] == 'fdr')
    pt = next(p for p in fdr['points']
              if p['size'] == 512 and p['depth'] == 8)
    print(f"512 B depth-8 gain on fdr: {pt['gain']:.2f}x "
          f"(achieved depth {pt['achieved_depth']:.1f})")
    assert pt['gain'] >= 1.3, "batching win at 512 B depth-8 fell below 30%"
    assert pt['achieved_depth'] >= 1.5, "doorbell batches stopped forming"


def striping(data):
    fdr = next(p for p in data['profiles'] if p['profile'] == 'fdr')
    p64 = next(pt for pt in fdr['points'] if pt['size'] == 65536)
    print(f"64 KiB rails=4 gain on fdr: {p64['gain4']:.2f}x")
    assert p64['gain4'] >= 1.3, "rails=4 win at 64 KiB regressed below 1.3x"


def manystream(data):
    fdr = next(p for p in data['profiles'] if p['profile'] == 'fdr')
    pt = next(pt for pt in fdr['points'] if pt['streams'] == 1024)
    print(f"1024 streams: {pt['link_fraction']*100:.1f}% of link, "
          f"fairness {pt['fairness']:.2f}x, "
          f"pool peak {pt['pool_peak_bytes']} B")
    assert pt['pool_peak_bytes'] <= data['slab_bytes'], \
        "pool occupancy exceeded the fixed slab"
    assert pt['fairness'] <= 2.0, \
        "per-stream completion-time spread regressed above 2x"
    assert pt['link_fraction'] >= 0.70, \
        "1024-stream aggregate goodput regressed below 70% of link"
    assert pt['admission_refusals'] == 0, \
        "acceptor refused planned streams with a full-size pool"
    checked = [pt for pt in fdr['points'] if pt['checker_ran']]
    assert checked, "no point ran the pool conservation checker"
    assert all(pt['checker_violations'] == 0 for pt in checked), \
        "pool conservation checker reported violations"


def mux(data):
    top = next(pt for pt in data['points']
               if pt['tier'] == 'muxed' and pt['streams'] == 65536)
    print(f"65536 streams over {top['qps_created']} QPs: "
          f"{top['goodput_mbps']:.0f} Mb/s, "
          f"fairness {top['fairness']:.2f}x, "
          f"HoL p99 {top['hol_p99_us']:.1f} us")
    assert top['qps_created'] == data['pool_width'], \
        "muxed tier created more QPs than the slot pool"
    assert top['fairness'] <= data['fairness_bound'], \
        "DRR fairness (slowest/median) regressed past the bound"
    checked = [pt for pt in data['points'] if pt['checker_ran']]
    assert checked, "no point replayed the mux conservation checker"
    assert all(pt['checker_violations'] == 0 for pt in checked), \
        "mux conservation checker reported violations"


def openloop(data):
    points = data['points']
    assert points, "no open-loop points reported"
    for pt in points:
        where = f"{pt['arm']}/{pt['arrivals']}/clients={pt['clients']}"
        assert pt['lost'] == 0, f"{where}: lost requests"
        assert pt['checker_ran'], f"{where}: checker did not run"
        assert pt['checker_violations'] == 0, \
            f"{where}: conservation violations"
        assert pt['refusal_rate'] < 0.5, \
            f"{where}: refusal rate unbounded"
        assert pt['timeout_rate'] < 0.25, \
            f"{where}: timeout rate unbounded"
    pressure = [pt for pt in points
                if pt['arm'] == 'mux' and pt['slab_slots'] < 4096]
    assert pressure and all(pt['refused'] > 0 for pt in pressure), \
        "slab-pressure point refused nothing (not under pressure)"
    churn = [pt for pt in points if pt['arm'] == 'churn']
    assert churn, "no churn point reported"
    for pt in churn:
        assert 0 < pt['admission_refusals'] < pt['admission_attempts'], \
            "churn admission refusals not a bounded nonzero share"
    top = max(pt['clients'] for pt in points if pt['arm'] == 'mux')
    print(f"{len(points)} points, up to {top} clients: "
          "conservation clean, rates bounded")


# Gate name -> (the bench whose document it reads, the gate).
GATES = {
    'coalescing': ('ext_coalescing', coalescing),
    'batching': ('ext_batching', batching),
    'striping': ('ext_striping', striping),
    'manystream': ('ext_manystream', manystream),
    'mux': ('ext_mux', mux),
    'openloop': ('ext_openloop', openloop),
}


def main(argv):
    if len(argv) != 2 or argv[0] not in GATES:
        print(__doc__, file=sys.stderr)
        return 2
    if not __debug__:
        print("bench_gates.py: the gates are asserts; run without -O",
              file=sys.stderr)
        return 2
    bench, gate = GATES[argv[0]]
    with open(argv[1]) as f:
        data = json.load(f)
    if 'benches' in data:  # a merged BENCH_streams.json
        data = next(b for b in data['benches'] if b['bench'] == bench)
    assert data['bench'] == bench, f"{argv[1]} is not a {bench} document"
    gate(data)
    return 0


if __name__ == '__main__':
    sys.exit(main(sys.argv[1:]))
