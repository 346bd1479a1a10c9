"""Bit identity of the integrator's results.

The digests below are sha256 over the float64 bytes of integrate's times,
q, p and energy_error, of solve_stages and of step at the initial state,
for the five named methods and the order-6 reference on the pendulum,
harmonic and Kepler problems.  Hashing value bytes rather than reprs lets a
scalar step return float or np.float64 alike.  A refactor of the stepping
code must reproduce every bit; a change that alters the arithmetic on
purpose re-records them with

    PYTHONPATH=src python tests/test_bit_identity.py

and says why.
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
        "integrate": "b89fdefc432cf42a8f9c529a06e55dee5db32165438978fb091c66548f0e0605",
        "solve_stages": "2b44e53c5d8887a32377188e90a22152e5b2c9e6ec3214f769fde5c77bcaf85d",
        "step": "313dcd5301534be8920c6b95e1900f9cdf103c9ccb3b384a68ad241e10702a66",
    },
    ("pendulum", "rkn-iiib"): {
        "integrate": "e6bf24ef355f377822e332565a05cf4eabdb49f953f11d15f13e7df43eccbaf1",
        "solve_stages": "8fd269cef9778778bd81fa05506861892cc8e20a093cae45c2b4b0b9eb269c9e",
        "step": "8fbee510ed15fa64b31cb48f90033d7def10bc61dafc6cef32d9e160f8119e16",
    },
    ("pendulum", "diagsymp"): {
        "integrate": "ec6db8d55bea39a596cc782f31a24a068029dd135baf4d24f785b40682313dc9",
        "solve_stages": "90d6a70ba9801b606f8aa2d4b806425bd29bb9cbeda3ba7a177de1a3447c4589",
        "step": "2fa5e88174d1feed59c78b833c351e99aaed6c0b45ee4da111bf322d207b58f5",
    },
    ("pendulum", "rkn-a"): {
        "integrate": "bcadc6ebe2bb9c7dc9928080f0781f41882b40ba7dcb2395c7a4c4464bfa0e50",
        "solve_stages": "72fa5bb866ad4c697a54681efbed7b3ee56fd88198c151b94adf16992c9d8948",
        "step": "4ebb1c594d534e548a8877bbc76396a0b1906d98a6b9cbcc2a9f4bdf346d93dc",
    },
    ("pendulum", "rkn-b"): {
        "integrate": "b975835ae3f27fae019d2f915ba3b3df63a0799d30e334ca580d8468c05231a8",
        "solve_stages": "67605a1e3e465c97356c8914eb9e61d0aed2b7c51e9e1e3bdbff9dd121dbd542",
        "step": "ac5b5de395c38d55553328787631627a1b927ce626e31f65b5907a2243064210",
    },
    ("pendulum", "order6-gauss3"): {
        "integrate": "d507f24ab4cd5515b8b7c74950dd11a349ff1a58a36fe1dfacb8944a2826b236",
        "solve_stages": "09a9fedf9ed1a6aff439f92057a088b842145321637097a6bad1150921520479",
        "step": "d0f8b5bf5b4517d619fb7378d9937ca70ba18e805817212616060c4b129391fb",
    },
    ("harmonic", "rkn-iiia"): {
        "integrate": "c0e61e07dd436a063ace8dfb0e9349ab78016a191a9b656886bb0836339d4889",
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
        "integrate": "b82b430d9dc3de4b321922eeb9d2b2bd0a787e79481380fd8b1afd434114d102",
        "solve_stages": "0e3a42fd783f4382f83d85e427ada46d28a90d3b882a46d0cf646b2b13124a60",
        "step": "688741af20445a31408c37f3da62296afe8c2793c9ea0734fe5165e3efe70bc3",
    },
    ("kepler", "rkn-iiia"): {
        "integrate": "61a100c9143e606368966a1ae7110fffa0fb6562bba56aa6208149109b8b225f",
        "solve_stages": "e3d303ead432f8935cf3fac3298951893e8609d47ea4fc8dbe50e38e32b8debd",
        "step": "613ccd9295df1146bf1efd839142157e99ea88a43177ba7bc94a434e6faa4077",
    },
    ("kepler", "rkn-iiib"): {
        "integrate": "7f239fb2db0a22de361cac66dab91904dcaec2d1630ba38979613537a3280107",
        "solve_stages": "cc10f9f74b780db1acfde019dc424137e487f4c02756e39c40dd23aa172def07",
        "step": "74c08c9ed574ef9f67343ffd67a9e56e35ccbf0692364461bdc48727bc0a6886",
    },
    ("kepler", "diagsymp"): {
        "integrate": "a16c0fbc05060a6513bdde4e7aac2e5213f2e542b268b8aeeacaf3fd1af38bdc",
        "solve_stages": "3db8ae78d5b1ee26eb268169bf5f0e2119ac93dbd9c9af3da53eb803522a1adc",
        "step": "c25cac5a7ef22093615e970d431a94f0f2c7aa203a6727ce3cac36f05c80297f",
    },
    ("kepler", "rkn-a"): {
        "integrate": "4ce972018747d4b290644d10667fe2b20641578b80b849e7b62cb14f586a3774",
        "solve_stages": "dbaa7c1153ef22505ff2bf45092dca93e23f697edf23f586c0a7c60a9897358d",
        "step": "5c6152dbcfbbf24a9220caa3b1479303c220215bdc2b22e988bd1228fb18de7b",
    },
    ("kepler", "rkn-b"): {
        "integrate": "f52dabaa3804988ba830ad1bbc2f08e18bf0c31c6b326ddc4d0a49654aa76feb",
        "solve_stages": "c43ff978b4e0385131647c54a9fe8648193c79e8bffbc3ab8c48e079c08d4c9d",
        "step": "1437d7ff5aed02ff823c9ba85bd18338daa79b149c00e4d9e7b542de452da061",
    },
    ("kepler", "order6-gauss3"): {
        "integrate": "68462f23d8cdd990ee3b2c0635be37f43eb061fb91e49fffae7f8dd7b67b9d6b",
        "solve_stages": "f559ff0a0d4d68e1c989cfaee80954ce4837aea81db231e17ebabe98a3d6a9f8",
        "step": "f128fc66717565d1e32ad4860266f7d6a18d7f70f14f100ad5585f00cbf91ac3",
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
    assert digests(problem, method) == DIGESTS[problem, method]


if __name__ == "__main__":
    print("DIGESTS = {")
    for problem in RUNS:
        for method in METHODS:
            print(f'    ("{problem}", "{method}"): {{')
            for part, hexdigest in digests(problem, method).items():
                print(f'        "{part}": "{hexdigest}",')
            print("    },")
    print("}")
