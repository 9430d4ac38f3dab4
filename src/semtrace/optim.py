"""Adam (Kingma & Ba, ICLR 2015), the one optimizer of the GRPO policies
(``optimizer="adam"``) and of the linear probes."""

import numpy as np

from .values import stored_int

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Bias-corrected Adam ascent over named lists of parameter vectors.
    ``t`` counts updates; a vector's moments start at zero on its first
    gradient."""

    def __init__(self):
        self.t = 0
        self.m = {}  # name -> first moment of each vector
        self.v = {}  # name -> second moment of each vector

    def ascend(self, params: dict, grads: dict, lr: float) -> None:
        """``params[name][i] += lr * m_hat / (sqrt(v_hat) + EPS)`` in place,
        for each gradient ``grads[name][i]``."""
        self.t += 1
        for name, vecs in grads.items():
            m_list = self.m.setdefault(name, [np.zeros_like(g) for g in vecs])
            v_list = self.v.setdefault(name, [np.zeros_like(g) for g in vecs])
            for i, g in enumerate(vecs):
                m_list[i] = BETA1 * m_list[i] + (1 - BETA1) * g
                v_list[i] = BETA2 * v_list[i] + (1 - BETA2) * g * g
                m_hat = m_list[i] / (1 - BETA1 ** self.t)
                v_hat = v_list[i] / (1 - BETA2 ** self.t)
                params[name][i] += lr * m_hat / (np.sqrt(v_hat) + EPS)

    def to_json(self) -> dict:
        """The state as ``state.json`` keeps it, ``{}`` before the first update."""
        rows = lambda table: {name: [v.tolist() for v in vecs] for name, vecs in table.items()}
        return {"t": self.t, "m": rows(self.m), "v": rows(self.v)} if self.t else {}

    @classmethod
    def from_json(cls, raw: dict) -> "Adam":
        """The state ``to_json`` wrote; :meth:`check_fits` checks it against
        the parameters."""
        adam = cls()
        if raw:
            arrays = lambda table: {name: [np.array(v, dtype=float) for v in vecs] for name, vecs in table.items()}
            adam.t, adam.m, adam.v = stored_int(raw["t"], "adam t", 1), arrays(raw["m"]), arrays(raw["v"])
        return adam

    def check_fits(self, params: dict) -> None:
        """Raise ``ValueError`` unless every moment names a vector list of
        ``params`` and has the shapes of its vectors."""
        for table in (self.m, self.v):
            for name, vecs in table.items():
                if name not in params:
                    raise ValueError("adam moments name %r, which has no logits" % (name,))
                shapes, want = [v.shape for v in vecs], [p.shape for p in params[name]]
                if shapes != want:
                    raise ValueError("adam moments of %r have shapes %s, but its logit vectors have %s"
                                     % (name, shapes, want))
