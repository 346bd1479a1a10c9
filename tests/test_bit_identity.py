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
of every step after a run's first; solve_stages and step make one step,
which starts at its bases, as a run's first step does.  No digest moved
when that start replaced free motion, q0 + h c_i p0, in the first step.

The Kepler digests were last re-recorded when array state moved from numpy
matrix products to the generated kernel, whose sums run ascending from 0.0
as the scalar kernel's do (results moved by at most 3.2e-14 to t = 20).
The pendulum and harmonic digests did not change.

rkn-iiib's pendulum integrate digest was last re-recorded when the kernel
began solving the stage blocks of a_bar one after another: its stage 2
reads stages 0 and 1 and nothing reads it, so it is computed once from
their converged forces and no longer holds their sweeps open (q and p
moved by at most 7.2e-12 to t = 160).

The rkn-iiia integrate and solve_stages digests on all three problems,
and the solve_stages digests of rkn-iiib (pendulum), rkn-a and rkn-b
(pendulum, Kepler), were last re-recorded when one text began to solve
every stage block: each base sums the stages solved before its block,
and a sweep adds h^2 a_ij F_j over the block's own stages only, with
h^2 a_ij taken once per run.  rkn-iiia's block (1,2) now reads stage 0
once per step from its base, so its trajectories move by rounding (q and
p by at most 1.5e-11 on the pendulum to t = 160, 1.9e-14 on Kepler to
t = 20).  The other methods' stage values move by rounding in the single
step from free motion; their trajectories keep every bit.
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
        "integrate": "3162de5ef6d20b32a70a5bbef625cab97adb9b9f67f0d4448ac84d8294b31032",
        "solve_stages": "57c9451a2d78329b211e58c3df1b1832b7d1100ef100cafbf500a09ace99fc36",
        "step": "313dcd5301534be8920c6b95e1900f9cdf103c9ccb3b384a68ad241e10702a66",
    },
    ("pendulum", "rkn-iiib"): {
        "integrate": "060567574355d0dcd11e16230de8ed1421c25eaaa730dd9f5f66c39fe24a9de7",
        "solve_stages": "3c7fc5163abc73529b4a78e39a2deb6016c1b6a5e043f152ed233e6fbd9ed957",
        "step": "8fbee510ed15fa64b31cb48f90033d7def10bc61dafc6cef32d9e160f8119e16",
    },
    ("pendulum", "diagsymp"): {
        "integrate": "c401c9a8d7ae3e8f8be3245784b428ff0be1fdb6b037e269acb5c4cac330c324",
        "solve_stages": "90d6a70ba9801b606f8aa2d4b806425bd29bb9cbeda3ba7a177de1a3447c4589",
        "step": "2fa5e88174d1feed59c78b833c351e99aaed6c0b45ee4da111bf322d207b58f5",
    },
    ("pendulum", "rkn-a"): {
        "integrate": "9217edb0184b1ede920cc311b4a0ece366476cbe877ac9ec66301065d712f660",
        "solve_stages": "5af49ec0f7116cfb095a29c445e32a7ba71c116b70ea820b1df0b4cd8e833353",
        "step": "4ebb1c594d534e548a8877bbc76396a0b1906d98a6b9cbcc2a9f4bdf346d93dc",
    },
    ("pendulum", "rkn-b"): {
        "integrate": "4d21b919aca4429bb8c9be33b9f33d62b333e85d7bfca5b0d6b28516b6b0cff9",
        "solve_stages": "c864395ce70a337eac3c87a53dd4b854dd0ad1af34264dedaf4be810c1583811",
        "step": "ac5b5de395c38d55553328787631627a1b927ce626e31f65b5907a2243064210",
    },
    ("pendulum", "order6-gauss3"): {
        "integrate": "0fb4f6012afe5d6faa32ed52cdf4571a6c318e7cac2b6beed6ff2753eca50c5c",
        "solve_stages": "09a9fedf9ed1a6aff439f92057a088b842145321637097a6bad1150921520479",
        "step": "d0f8b5bf5b4517d619fb7378d9937ca70ba18e805817212616060c4b129391fb",
    },
    ("harmonic", "rkn-iiia"): {
        "integrate": "436ef15b765ac7c41511a81c5b6c4b4c030fe3c7b6c6e151004a01f28f27ec0f",
        "solve_stages": "05e5d82d7635ff2ba90274bf9f55e8e066ef060347adcfca70f7fa78c67c4aa8",
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
        "integrate": "a7080105f52192b037ba1fa0f229b1c8ef5960c61dd27e5e54799af8483a79cb",
        "solve_stages": "19eb2bf2253728da585ec1f22023eebaaf7c90b6b99bde511c8d39ac44414082",
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
        "solve_stages": "1e40bf6fb0bf9bc9defc6dfa5d83f185037a60aafffbd83765695c73f7c0a783",
        "step": "5c6152dbcfbbf24a9220caa3b1479303c220215bdc2b22e988bd1228fb18de7b",
    },
    ("kepler", "rkn-b"): {
        "integrate": "dbb3aae0059b0808f21b076f1e8640ce98a5ef3eeb2cf25180733aceccc7872e",
        "solve_stages": "c43ff978b4e0385131647c54a9fe8648193c79e8bffbc3ab8c48e079c08d4c9d",
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
