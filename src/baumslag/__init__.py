"""Exact symbolic computation in Baumslag-Solitar groups BS(m, n), the
metabelian groups G(m, n) = Z[1/mn] semidirect Z, and graphs of groups:
word-problem solvers, two-generator subgroup classification, membership
certificates, structural witnesses, fundamental-group presentations, and
seeded verification suites."""

from .abelianization import Abelianization, abelianization, smith_normal_form
from .britton import (
    BsParams,
    BsWord,
    Z2WitnessReport,
    britton_reduce,
    equal,
    is_trivial,
    parse_bs_params,
    z2_witness,
)
from .errors import DomainError
from .fixtures import fixture_names, fixture_text, load_fixture
from .graph_of_groups import (
    CollapsedSplitting,
    GogFileError,
    GogValidationError,
    GraphOfGroups,
    PiOnePresentation,
    SerreGraph,
    collapse_all_but_one,
    fundamental_presentation,
    load,
    loads,
    spanning_tree,
    validate,
)
from .harness import (
    SuiteReport,
    expected_relator_count,
    suite_bezout,
    suite_classify,
    suite_ct,
    suite_gog,
    suite_oracle,
    suite_witnesses,
    suite_z2,
)
from .metabelian import (
    BezoutCertificate,
    MalnormalityViolationWitness,
    MetabelianElement,
    MetabelianParams,
    PowerConjugacyWitness,
    TwoGenClassification,
    bezout_certificate,
    centralizer_sample,
    eval_word,
    malnormality_violation_witness,
    parse_element,
    parse_params,
    power_conjugacy_witness,
    subgroup_params,
    two_gen_classify,
)
from .rationals import mn_member
from .words import Presentation, Word, WordParseError, format_word, parse_word

__version__ = "0.1.0"
