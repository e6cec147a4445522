"""Symbol drivers and how quickly they exhaust all words of a given length.

n_i(m) is the shortest prefix of a driver that contains every length-m word
over the alphabet {1..K} as a factor.  De Bruijn words realize the theoretical
floor K^m + m - 1 exactly; the concatenation (Champernowne-style) driver obeys
a closed-form upper bound; the parameterized block driver places sparse runs
of one symbol at super-geometric positions, which makes recovery times large.
"""

import chaosgame as cg


def main() -> None:
    K = 2
    champ = cg.champernowne(K)
    print("Concatenation driver, first 30 symbols:")
    print("  " + "".join(str(s) for s in champ.segment(0, 30)))

    print("\nPrefix length n_i(m) needed to see every m-word (K=2):")
    print("  m   concat  bound   de Bruijn  floor K^m+m-1")
    for m in range(1, 9):
        n_c = cg.word_coverage(cg.champernowne(K), m)
        bound = cg.champernowne_coverage_bound(K, m)
        n_d = cg.word_coverage(cg.infinite_de_bruijn(K), m, cap=10 ** 6)
        floor = K ** m + m - 1
        print(f"  {m:<3} {n_c:<7} {bound:<7} {n_d:<10} {floor}")

    w = cg.de_bruijn_word(2, 4)
    print(f"\nDe Bruijn word of order 4 (length {len(w)} = 2^4 + 3):")
    print("  " + "".join(str(s) for s in w.symbols))

    print("\nBlock driver (z=1): symbol 1 appears only in sparse runs")
    d = cg.example4_driver(1.0)
    prefix = list(d.segment(0, 60))
    print("  " + "".join(str(s) for s in prefix))
    ones = [i + 1 for i, s in enumerate(prefix) if s == 1]
    print(f"  positions of symbol 1: {ones}")


if __name__ == "__main__":
    main()
