"""Check every analytic gradient against central finite differences.

The backward pass is hand-derived; this script compares it tensor by
tensor against (f(p + h) - f(p - h)) / 2h on a small random instance for
both training objectives.  Relative errors around 1e-8 .. 1e-6 are the
floor set by float64 cancellation; anything near 1e-4 or above would
indicate a wrong derivative.

Run:  python3 demos/gradient_verification.py
"""

import numpy as np

from gdasum.losses import backward, finite_diff_grad, gradient_report
from gdasum.model import WEIGHT_FIELDS, HyperParams, forward, init_params


def check(mode: str, seed: int = 0):
    rng = np.random.default_rng(seed)
    n, d = 6, 5
    x = rng.standard_normal((n, d))
    hyper = HyperParams(hidden=8, embed=4, dropout_rate=0.0)
    params = init_params(d, hyper, seed)
    # off init, as `gdasum gradcheck` does: at init ff_b = 0 and layer norm
    # removes the diversity weights' scale, so w_att's gradient is nearly 0
    for name, arr in params.items():
        if name not in WEIGHT_FIELDS:
            arr += 0.5 * rng.standard_normal(arr.shape)
    labels = None
    if mode == "supervised":
        labels = np.zeros(n, dtype=np.int8)
        labels[[1, 4]] = 1

    trace = forward(x, params, hyper, mode="eval")
    analytic = backward(trace, x, params, hyper, mode, labels=labels)
    numeric = finite_diff_grad(x, params, hyper, mode, labels=labels)
    report = gradient_report(analytic, numeric)

    print(f"{mode} objective ({n} frames, {d}-dim features):")
    for name, err in report.items():
        if name == "max":
            continue
        print(f"  {name:12s} rel err {err:.3e}")
    print(f"  {'max':12s} rel err {report['max']:.3e}"
          f"  ({'OK' if report['max'] <= 1e-4 else 'SUSPECT'})\n")
    return report["max"]


def main():
    worst = max(check("supervised"), check("unsupervised"))
    print(f"worst relative error across both objectives: {worst:.3e}")


if __name__ == "__main__":
    main()
