"""The physical layer: numbered cards, matrices, and the two shuffles.

Everything the protocol does is built from face-down cards laid out in a
matrix and two column shuffles: the pile-shifting shuffle (a uniform cyclic
rotation — relative order survives) and the pile-scramble shuffle (a uniform
permutation — all order is destroyed).

Run:  python3 demos/02_deck_and_shuffles.py
"""

from collections import Counter

from makaro_zkp import (
    CardMatrix,
    RandomSource,
    cell_card,
    encoding_card,
    help_card,
    pile_scramble_shuffle,
    pile_shifting_shuffle,
)


def fresh_row(cards):
    return CardMatrix.from_rows([cards])


def main() -> None:
    print("Cards are identified by set and index.  Each room has one card per")
    print("value, and there are helping cards plus four encoding sets a-d:")
    print(f"  {cell_card('A', 2)}   {help_card(3)}   {encoding_card('b', 1)}\n")

    cards = [help_card(i) for i in range(1, 6)]
    source = RandomSource("demo:shift")
    print(f"Start with a row of five cards: {[str(c) for c in cards]}")

    matrix = fresh_row(cards)
    pile_shifting_shuffle(matrix, source)
    after = [str(matrix.card_at(0, c)) for c in range(5)]
    print(f"One pile-shifting shuffle:      {after}")
    print("The row is rotated by a secret uniform offset; cards keep their")
    print("cyclic neighbors, which is exactly what the arrow check needs.\n")

    matrix = fresh_row(cards)
    pile_scramble_shuffle(matrix, source)
    after = [str(matrix.card_at(0, c)) for c in range(5)]
    print(f"One pile-scramble shuffle:      {after}")
    print("A uniform permutation of the columns; afterwards the original")
    print("order is information-theoretically gone.\n")

    trials = 30_000
    offsets = Counter()
    for _ in range(trials):
        matrix = fresh_row(cards)
        pile_shifting_shuffle(matrix, source)
        offsets[[matrix.card_at(0, c) for c in range(5)].index(help_card(1))] += 1
    print(f"Offsets of {trials} pile-shifting shuffles (5 columns):")
    for offset in sorted(offsets):
        share = offsets[offset] / trials
        print(f"  shift {offset}: {offsets[offset]:>6}  ({share:.3f})")
    print("Each of the 5 offsets comes up about 1/5 of the time.\n")

    small = [help_card(i) for i in range(1, 4)]
    orders = Counter()
    for _ in range(trials):
        matrix = fresh_row(small)
        pile_scramble_shuffle(matrix, source)
        orders[tuple(str(matrix.card_at(0, c)) for c in range(3))] += 1
    print(f"Orders of {trials} pile-scramble shuffles (3 columns):")
    for order, count in sorted(orders.items()):
        print(f"  {' '.join(order)}: {count:>6}  ({count / trials:.3f})")
    print("All 3! = 6 permutations appear about 1/6 of the time each.")


if __name__ == "__main__":
    main()
