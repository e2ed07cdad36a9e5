"""Exact odometers on spaces of integer words, their binary trees of
rationals, and their interval realizations.

The package has three layers:

* words / odometers / word_actions / trees: combinatorics of finite and
  eventually periodic words over {k, k+1, ...}, the adding-machine actions
  on them, and the binary tree holding all finite words by digit sum.
* codecs / interval_maps: exact codecs between words and rationals
  (continued fractions, backward continued fractions, dyadic expansions)
  and closed-form odometers over the Gauss, backward, and restricted Gauss
  interval maps, plus a generic branch-system odometer.
* analysis / cli: independent cross-checking oracles, statistics, and the
  command-line surface.
"""

from .words import (
    FiniteWord,
    TailWord,
    TreeAddress,
    block_decode,
    block_encode,
    compare_rlex,
    constant,
    drop_front,
    position_index,
    shift_alphabet,
    sum_k,
    tail,
    total_index,
    word,
    word_at,
)
from .odometers import (
    baire_fast_forward,
    baire_step,
    dyadic_step,
    fast_forward,
    renormalization_exponent,
    shift,
)
from .word_actions import Policy, enumerate_words, orbit, step
from .trees import (
    address_sons,
    level_words,
    locate,
    parent,
    sons,
    subtree_level,
)
from .codecs import (
    BCF_ZERO,
    BcfWord,
    bcf_decode,
    bcf_encode,
    bcf_finite_form,
    bcf_tail_form,
    cf_decode,
    cf_encode,
    dyadic_decode,
    dyadic_encode,
    format_rational,
    is_canonical_cf,
    parse_rational,
    twin,
)
from .interval_maps import (
    Boundary,
    CmiMap,
    cmi_odometer,
    dyadic_interval_step,
    fib,
    gauss,
    gauss_cmi,
    gauss_odometer,
    golden_mean_k,
    k_gauss_cmi,
    k_gauss_odometer,
    question_mark,
    renyi,
    renyi_cmi,
    renyi_odometer,
)
from .analysis import (
    bfs_oracle,
    distribution_test,
    enumerate_coded,
    enumerate_rationals,
    frequency_test,
    stern,
    stern_oracle,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
