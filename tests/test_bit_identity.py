"""Bit identity of the integrator's results.

The digests below are sha256 over the float64 bytes of integrate's times,
q, p and energy_error, of solve_stages and of step at the initial state,
for the five named methods and the order-6 reference on the pendulum,
harmonic and Kepler problems.  Hashing value bytes rather than reprs lets a
scalar step return float or np.float64 alike.  A failure names the parts
whose digests changed.  A refactor of the stepping code must reproduce every
bit; a change that alters the arithmetic on purpose re-records the digests
of the parts it changes with

    PYTHONPATH=src python tests/test_bit_identity.py

and says why.  The integrate digests cover the extrapolated stage start
that only integrate uses; solve_stages and step start from free motion.

The Kepler digests were last re-recorded when array state moved from numpy
matrix products to the generated kernel, whose sums run ascending from 0.0
as the scalar kernel's do (results moved by at most 3.2e-14 to t = 20).
The pendulum and harmonic digests did not change.

rkn-iiib's pendulum integrate digest was last re-recorded when the kernel
began solving the stage blocks of a_bar one after another: its stage 2
reads stages 0 and 1 and nothing reads it, so it is computed once from
their converged forces and no longer holds their sweeps open (q and p
moved by at most 7.2e-12 to t = 160).
"""

import hashlib

import numpy as np
import pytest

from symrkn.integrator import (
    StepConfig,
    integrate,
    reference_tableau,
    solve_stages,
    step,
)
from symrkn.problems import harmonic_oscillator, kepler_2d, perturbed_pendulum
from symrkn.tableau import named_tableau

# problem: (factory, h, t_end)
RUNS = {
    "pendulum": (perturbed_pendulum, 0.16, 160.0),
    "harmonic": (harmonic_oscillator, 0.1, 50.0),
    "kepler": (kepler_2d, 0.05, 20.0),
}
METHODS = ("rkn-iiia", "rkn-iiib", "diagsymp", "rkn-a", "rkn-b", "order6-gauss3")
SAMPLE_EVERY = 7

DIGESTS = {
    ("pendulum", "rkn-iiia"): {
        "integrate": "18c78b56e5bc37a27619c4be6980f1ce9c7a5deec865a7f60126c9178bf885e0",
        "solve_stages": "2b44e53c5d8887a32377188e90a22152e5b2c9e6ec3214f769fde5c77bcaf85d",
        "step": "313dcd5301534be8920c6b95e1900f9cdf103c9ccb3b384a68ad241e10702a66",
    },
    ("pendulum", "rkn-iiib"): {
        "integrate": "060567574355d0dcd11e16230de8ed1421c25eaaa730dd9f5f66c39fe24a9de7",
        "solve_stages": "8fd269cef9778778bd81fa05506861892cc8e20a093cae45c2b4b0b9eb269c9e",
        "step": "8fbee510ed15fa64b31cb48f90033d7def10bc61dafc6cef32d9e160f8119e16",
    },
    ("pendulum", "diagsymp"): {
        "integrate": "c401c9a8d7ae3e8f8be3245784b428ff0be1fdb6b037e269acb5c4cac330c324",
        "solve_stages": "90d6a70ba9801b606f8aa2d4b806425bd29bb9cbeda3ba7a177de1a3447c4589",
        "step": "2fa5e88174d1feed59c78b833c351e99aaed6c0b45ee4da111bf322d207b58f5",
    },
    ("pendulum", "rkn-a"): {
        "integrate": "9217edb0184b1ede920cc311b4a0ece366476cbe877ac9ec66301065d712f660",
        "solve_stages": "72fa5bb866ad4c697a54681efbed7b3ee56fd88198c151b94adf16992c9d8948",
        "step": "4ebb1c594d534e548a8877bbc76396a0b1906d98a6b9cbcc2a9f4bdf346d93dc",
    },
    ("pendulum", "rkn-b"): {
        "integrate": "4d21b919aca4429bb8c9be33b9f33d62b333e85d7bfca5b0d6b28516b6b0cff9",
        "solve_stages": "67605a1e3e465c97356c8914eb9e61d0aed2b7c51e9e1e3bdbff9dd121dbd542",
        "step": "ac5b5de395c38d55553328787631627a1b927ce626e31f65b5907a2243064210",
    },
    ("pendulum", "order6-gauss3"): {
        "integrate": "0fb4f6012afe5d6faa32ed52cdf4571a6c318e7cac2b6beed6ff2753eca50c5c",
        "solve_stages": "09a9fedf9ed1a6aff439f92057a088b842145321637097a6bad1150921520479",
        "step": "d0f8b5bf5b4517d619fb7378d9937ca70ba18e805817212616060c4b129391fb",
    },
    ("harmonic", "rkn-iiia"): {
        "integrate": "5969428d4b6bcbafd4fda36e0c2034813663accd7609ead2d8b8cdd9dc9e875b",
        "solve_stages": "f9fdd6bea0692798764c9c4c631d56a58a9cb84848f30a444b4062f07e1f7972",
        "step": "5c96703545fad2f011b58c3edd4e5b826ace0e29666802cb5678c5660d7d5fb9",
    },
    ("harmonic", "rkn-iiib"): {
        "integrate": "52c9c979df72836ca7617e9641533e45363fc6c28cbdd515a2f6d7cf4b693e14",
        "solve_stages": "6e31604fff06eff9cdc0175e1df2157316656c5f9584e532e0337ab25471fceb",
        "step": "5c96703545fad2f011b58c3edd4e5b826ace0e29666802cb5678c5660d7d5fb9",
    },
    ("harmonic", "diagsymp"): {
        "integrate": "43ba94c03829314a1c5f8367617c72e72e7bae23b4f8c49ae1c715ed2cc0615b",
        "solve_stages": "3295006319bd76f229f067c32cd4d5b5908f02f5e12af08fc3547eae67d150cc",
        "step": "524c81059ad87a1e02d9bc19c5423272fff262ea81c5b9df8ddd2eacc4cb0bc6",
    },
    ("harmonic", "rkn-a"): {
        "integrate": "11bdb19f827a42d7278a59ba97ded6d2da9b2db156181ddbe49a71040d7fff4e",
        "solve_stages": "75681e5456eec75c2f9006c5e5498339bd77cab85ae0888847184a9db7d4855b",
        "step": "7a9a647490fc9e709c019078ce8a210e5e53b7a793b9f3a1380a7d594bcaa1ba",
    },
    ("harmonic", "rkn-b"): {
        "integrate": "c622bb0a12d9080bd44177f94ad20af2c77ccea1ef63d0b65c6f686ee87b7111",
        "solve_stages": "a26ae6ffd100e22e76427cbd9247a45b4e94c9e07d0ac9c3b9be91521ea6a566",
        "step": "7a9a647490fc9e709c019078ce8a210e5e53b7a793b9f3a1380a7d594bcaa1ba",
    },
    ("harmonic", "order6-gauss3"): {
        "integrate": "215e1e925bf0e8b69c9fc1738da0e8737c7772139b29449a73412eb88513da74",
        "solve_stages": "0e3a42fd783f4382f83d85e427ada46d28a90d3b882a46d0cf646b2b13124a60",
        "step": "688741af20445a31408c37f3da62296afe8c2793c9ea0734fe5165e3efe70bc3",
    },
    ("kepler", "rkn-iiia"): {
        "integrate": "74454b039452b8ecc8152ce282f578ad89648180cd334c62173dc81fb658bd7f",
        "solve_stages": "e3d303ead432f8935cf3fac3298951893e8609d47ea4fc8dbe50e38e32b8debd",
        "step": "d8b08dfbfa0b4f772e49923ea3a16e988fa8a6fe0737bc00fdfec102857f2cf0",
    },
    ("kepler", "rkn-iiib"): {
        "integrate": "cf7eee7559c5733dea1f5b6bc02ceb91ba88812f8fe026fe3f30a6823a4a1203",
        "solve_stages": "cc10f9f74b780db1acfde019dc424137e487f4c02756e39c40dd23aa172def07",
        "step": "39e27a7fe287de34190579861a5493f20b0b8be722827e4b1c60c6c477e7ed1c",
    },
    ("kepler", "diagsymp"): {
        "integrate": "67b641bc2e7c4779466f2f4221e27964f7530a4d721d9ad01ae47653d482ec75",
        "solve_stages": "3db8ae78d5b1ee26eb268169bf5f0e2119ac93dbd9c9af3da53eb803522a1adc",
        "step": "c25cac5a7ef22093615e970d431a94f0f2c7aa203a6727ce3cac36f05c80297f",
    },
    ("kepler", "rkn-a"): {
        "integrate": "eaab78b032260a606339f0f799406edf6f22b40fdbde21d9cf810257fd51f42e",
        "solve_stages": "dbaa7c1153ef22505ff2bf45092dca93e23f697edf23f586c0a7c60a9897358d",
        "step": "5c6152dbcfbbf24a9220caa3b1479303c220215bdc2b22e988bd1228fb18de7b",
    },
    ("kepler", "rkn-b"): {
        "integrate": "dbb3aae0059b0808f21b076f1e8640ce98a5ef3eeb2cf25180733aceccc7872e",
        "solve_stages": "a877650ee111ccd1db7b41670d0687ac570ddfd2128c7a267589c7c3d0c2c5ce",
        "step": "1437d7ff5aed02ff823c9ba85bd18338daa79b149c00e4d9e7b542de452da061",
    },
    ("kepler", "order6-gauss3"): {
        "integrate": "e25ac7ac1cda9fd28cc9dd46013f07f52d4d311243425b84fee389632d0cf2fb",
        "solve_stages": "f559ff0a0d4d68e1c989cfaee80954ce4837aea81db231e17ebabe98a3d6a9f8",
        "step": "66b60600bf66f24829c467be95de4b21409a7720b1b259d6e7156fd090544a74",
    },
}


def _tableau(method):
    if method == "order6-gauss3":
        return reference_tableau()
    return named_tableau(method)


def _sha(*values) -> str:
    h = hashlib.sha256()
    for v in values:
        h.update(np.ascontiguousarray(v, dtype=np.float64).tobytes())
    return h.hexdigest()


def digests(problem: str, method: str) -> dict:
    make, h, t_end = RUNS[problem]
    prob = make()
    tab = _tableau(method)
    cfg = StepConfig(h=h)
    traj = integrate(tab, prob, t_end, cfg, sample_every=SAMPLE_EVERY)
    args = (tab, prob.force, prob.t0, prob.q0, prob.p0, cfg)
    return {
        "integrate": _sha(traj.times, traj.q, traj.p, traj.energy_error),
        "solve_stages": _sha(solve_stages(*args)),
        "step": _sha(*step(*args)),
    }


@pytest.mark.parametrize("problem", tuple(RUNS))
@pytest.mark.parametrize("method", METHODS)
def test_results_are_bit_identical(problem, method):
    got = digests(problem, method)
    changed = [part for part, want in DIGESTS[problem, method].items() if got[part] != want]
    assert not changed, f"digests changed: {', '.join(changed)}"


if __name__ == "__main__":
    print("DIGESTS = {")
    for problem in RUNS:
        for method in METHODS:
            print(f'    ("{problem}", "{method}"): {{')
            for part, hexdigest in digests(problem, method).items():
                print(f'        "{part}": "{hexdigest}",')
            print("    },")
    print("}")
