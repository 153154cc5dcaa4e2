"""A high-precision reference for R(z), built from the moments alone.

For a positive definite Gamma_n (indeterminate input) and the parameter
Phi = 0, which names the same solution in every basis of the defect spaces:
at `dps` digits with mpmath, factor Gamma_n = L L* and take the coordinates
Q = L*, whose columns are the classes of t^j e_a (degree-major).  With
Q_up the columns of degrees 1..n (the shift of the domain, degrees
0..n-1) and Q_low those of degrees 0..n-1, X = Q_up - i Q_low spans
M_i = (A - i)D and Y = Q_up + i Q_low = V X, so

    W_0 = Y (X* X)^{-1} X*

is V on M_i and 0 on N_i, A~ = i (W_0 + 1)(W_0 - 1)^{-1} its inverse Cayley
transform, and R(z) = I* (A~ - z)^{-1} I with I = Q[:, :d].  It shares no
code with the library and has no pole at z = i.
"""

import mpmath as mp
import numpy as np


def _matrix(a):
    a = np.asarray(a, dtype=complex)
    out = mp.matrix(*a.shape)
    for (j, k), value in np.ndenumerate(a):
        out[j, k] = mp.mpc(value.real, value.imag)
    return out


class MomentReference:
    """z -> R(z) as a complex d x d array, for the moments S_0..S_2n of `moments`."""

    def __init__(self, moments, dps=30):
        moments = np.asarray(moments, dtype=complex)
        if moments.ndim == 1:
            moments = moments.reshape(-1, 1, 1)
        self.dps, d, n = dps, moments.shape[1], (moments.shape[0] - 1) // 2
        self.d = d
        with mp.workdps(dps):
            size = d * (n + 1)
            gram = mp.matrix(size, size)
            for j in range(n + 1):
                for k in range(n + 1):
                    block = _matrix(moments[j + k])
                    for a in range(d):
                        for b in range(d):
                            gram[d * j + a, d * k + b] = block[a, b]
            gram = (gram + gram.H) / 2
            q = mp.cholesky(gram).H
            up, low = q[:, d:], q[:, : d * n]
            x, y = up - 1j * low, up + 1j * low
            w0 = y * mp.inverse(x.H * x) * x.H
            eye = mp.eye(size)
            self._a = 1j * (w0 + eye) * mp.inverse(w0 - eye)
            self._i = q[:, :d]
            self._eye = eye

    def __call__(self, z):
        with mp.workdps(self.dps):
            z = mp.mpc(complex(z).real, complex(z).imag)
            columns = [mp.lu_solve(self._a - z * self._eye, self._i[:, a]) for a in range(self.d)]
            return np.array([[complex((self._i[:, a].H * columns[b])[0])
                              for b in range(self.d)] for a in range(self.d)])
