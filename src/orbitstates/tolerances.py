"""Central tolerance configuration.

Every numeric threshold used across the package lives here so acceptance
runs are reproducible from a single record.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # chart / matrix hygiene
    ortho: float = 1e-12          # A^T A = I, det A = 1, quaternion norm
    commuting: float = 1e-10      # pairwise bracket norm for "commuting"

    # states
    delta: float = 1e-9           # delta-factor membership predicates
    sinc_taylor: float = 1e-4     # |x| below which sin(x)/x uses its series
    modulus_one: float = 1e-9     # | |m(g)| - 1 | for subgroup membership
    slack: float = 1e-12          # Herglotz / Krein / Weil slack
    psd_scale: float = 1e-9       # min eigenvalue >= -psd_scale * n

    # gns
    quotient_scale: float = 1e-9  # eigenvalue kept when > quotient_scale * n
    residual: float = 1e-9        # rep_matrix projection defect gate
    commutant_svd: float = 1e-8   # null-space singular-value cut

    # induced
    support_grid: float = 1e-9    # rounding grid for merging support points

    # orbits
    margin: float = 1e-6          # quantum_check slack epsilon
    box_radius: float = 50.0      # sampling box for unbounded chart coordinates

    # spectral
    freq_eps: float = 1e-3        # neighbourhood radius for concentration checks


DEFAULT = Tolerances()
