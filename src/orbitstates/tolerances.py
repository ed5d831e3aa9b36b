"""Central tolerance configuration and the gate rows that read it.

Every verdict bound lives here, so acceptance runs are reproducible from a
single record; a field's comment ends with the report gates that read it.
Search and algorithm constants stay in their modules.
"""

import operator
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
    slack: float = 1e-12          # Herglotz/Krein/Weil slack: *inequalities
    psd_scale: float = 1e-9       # min eigenvalue >= -psd_scale * n: *psd

    # gns
    quotient_scale: float = 1e-9  # eigenvalue kept when > quotient_scale * n
    residual: float = 1e-9        # rep_matrix defect: unitarity_residual
    recovery: float = 1e-9        # recovery_error, reproducing_defect
    commutant_svd: float = 1e-8   # null-space singular-value cut

    # induced
    support_grid: float = 1e-9    # rounding grid for merging support points
    coefficient: float = 1e-12    # induced against closed form: row_a .. row_d
    sphere_quadrature: float = 1e-8   # sphere_average_identity and
    #                                   spherical_coefficient_match
    circle_quadrature: float = 1e-10  # circle_average_identity

    # orbits
    margin: float = 1e-6          # quantum_check slack epsilon; *_quantum
    box_radius: float = 50.0      # sampling box for unbounded chart coordinates
    relation: float = 1e-10       # orbit relation residual: relation_residual
    hausdorff: float = 0.01       # kostant_hausdorff, projection_fills_interval

    # spectral
    freq_eps: float = 1e-3        # neighbourhood radius for concentration checks
    outside_mass: float = 1e-3    # mass outside it less leakage: concentration
    flow_zero: float = 1e-12      # haar_on_bohr |flow|; loc_q_boosted_haar
    unit_value: float = 1e-9      # haar_on_bohr |m(e) - 1|
    atom_mass: float = 1e-6       # |mass - 1| of a character: *_atom*
    weight_mass: float = 1e-8     # binomial_atoms
    quadrature: float = 1e-3      # sum |GL_n - GL_2n|: GridTooCoarse;
    #                               matches_oracle
    escape: float = 0.05          # mass_outside_positive
    shifted_escape: float = 0.9   # shifted_gaussian_escapes


DEFAULT = Tolerances()

OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
       ">=": operator.ge}


def gate(value, op, field, scale=1.0, plus=0.0):
    """The verdict row `value op bound`, bound = scale * DEFAULT.<field> +
    plus.  It passes only when the comparison holds, so a NaN value fails."""
    bound = scale * getattr(DEFAULT, field) + plus
    return {"value": value, "op": op, "bound": bound, "field": field,
            "pass": bool(OPS[op](value, bound))}
