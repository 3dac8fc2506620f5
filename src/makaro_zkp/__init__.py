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
    protocol  setup, the three check families, full runs, the simulator
    analysis  deck budgets, reveal-site distributions, chi-square testing
    cli       command-line front end
"""

from .puzzle import (
    Assignment,
    Coord,
    Grid,
    PuzzleError,
    PuzzleSemanticError,
    PuzzleSyntaxError,
    PuzzleStats,
    SearchBoundExceeded,
    assignment_from_grid,
    assignment_text,
    black_coords,
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
    collect_site_patterns,
    encoding_card,
    help_card,
    parse_card,
    pile_scramble_shuffle,
    pile_shifting_shuffle,
    reveal,
    turn_all_down,
)
from .protocol import (
    CardsUnavailable,
    FailedCheck,
    ProtocolError,
    ProverState,
    SetupError,
    SiteFamily,
    TableState,
    Verdict,
    arrow_check_cells,
    arrow_length,
    convert_cell,
    make_encoding,
    make_prover,
    neighbor_length,
    reveal_site_plan,
    run_full_protocol,
    run_full_protocol_with_table,
    setup_placement,
    simulate_transcript,
    verify_arrow,
    verify_neighbor,
    verify_room,
)
from .analysis import (
    CardBudget,
    ComparisonReport,
    InsufficientTrials,
    SiteHistograms,
    SiteReport,
    card_budget,
    collect_protocol_histograms,
    collect_simulator_histograms,
    compare_collections,
    compare_histograms,
    site_plan,
    solution_comparison,
    uniformity_sweep,
    uniformity_test,
    zk_comparison,
)

__version__ = "0.1.0"

__all__ = [
    "Assignment", "Coord", "Grid", "PuzzleError", "PuzzleSemanticError",
    "PuzzleSyntaxError", "PuzzleStats", "SearchBoundExceeded",
    "assignment_from_grid", "assignment_text", "black_coords", "build_grid",
    "check_solution", "parse_puzzle", "same_layout", "serialize_puzzle",
    "solve_brute_force", "stats", "violations", "white_neighbor_pairs",
    "all_value_assignments", "enumerate_small_grids",
    "CardId", "CardMatrix", "DeckError", "RandomSource", "Transcript",
    "cell_card", "encoding_card", "help_card", "parse_card",
    "pile_scramble_shuffle", "pile_shifting_shuffle", "reveal", "turn_all_down",
    "CardsUnavailable", "FailedCheck", "ProtocolError", "ProverState",
    "SetupError", "SiteFamily", "TableState", "Verdict", "arrow_check_cells",
    "arrow_length", "neighbor_length", "collect_site_patterns",
    "convert_cell", "make_encoding", "make_prover", "reveal_site_plan",
    "run_full_protocol", "run_full_protocol_with_table", "setup_placement",
    "simulate_transcript", "verify_arrow", "verify_neighbor", "verify_room",
    "CardBudget", "ComparisonReport", "InsufficientTrials",
    "SiteHistograms", "SiteReport", "card_budget",
    "collect_protocol_histograms", "collect_simulator_histograms",
    "compare_collections", "compare_histograms", "site_plan", "solution_comparison",
    "uniformity_sweep", "uniformity_test", "zk_comparison",
    "__version__",
]
