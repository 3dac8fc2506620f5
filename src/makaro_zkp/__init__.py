"""Card-based zero-knowledge proofs for Makaro puzzles.

A prover who knows the solution of a Makaro grid convinces a verifier that
the solution is valid -- room contents, neighbor inequality, and arrow
maximality -- without revealing any cell value.  The proof manipulates an
ordinary deck of cards through shuffles and reveals; this package models the
deck, runs the protocol, and statistically verifies that real transcripts
are indistinguishable from solution-free simulated ones.

Layout:
    puzzle    grid model, text format, rule checking, exhaustive solver
    gridgen   exhaustive enumerator of small grids for oracle sweeps
    deck      cards, shuffle operations, transcripts
    protocol  deck budget, setup, the three check families, runs, simulator
    analysis  reveal-site distributions, chi-square testing
    cli       command-line front end
"""

from types import ModuleType as _ModuleType

from .puzzle import (
    Assignment,
    Coord,
    Grid,
    PuzzleError,
    PuzzleSemanticError,
    PuzzleSyntaxError,
    PuzzleStats,
    Rule,
    SearchBoundExceeded,
    arrow_check_cells,
    assignment_from_grid,
    assignment_text,
    build_grid,
    check_solution,
    parse_puzzle,
    same_layout,
    serialize_puzzle,
    solve_brute_force,
    stats,
    violations,
    white_neighbor_pairs,
)
from .gridgen import all_value_assignments, enumerate_small_grids
from .deck import (
    CardId,
    CardMatrix,
    DeckError,
    RandomSource,
    Transcript,
    cell_card,
    encoding_card,
    help_card,
    parse_card,
    pile_scramble_shuffle,
    pile_shifting_shuffle,
    reveal_row,
    turn_all_down,
)
from .protocol import (
    CardBudget,
    FailedCheck,
    ProtocolError,
    ProverState,
    SetupError,
    SiteFamily,
    TableState,
    Verdict,
    card_budget,
    make_encoding,
    make_prover,
    read_view,
    reveal_site_plan,
    run_full_protocol,
    run_full_protocol_with_table,
    run_layout,
    setup_placement,
    simulate_transcript,
    simulate_view,
)
from .analysis import (
    ComparisonReport,
    InsufficientTrials,
    SiteHistograms,
    SiteReport,
    compare_collections,
    compare_histograms,
    site_plan,
    solution_comparison,
    zk_comparison,
)

__version__ = "0.1.0"

# every name imported above, so the export list cannot drift from the imports
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)] + ["__version__"]
