"""Test references for group schemes that share no code with the library's strata.

The walk stratum of each raw conjugacy class is read off the class labels
of the character table, and inverses come from ``GroupElements.mul`` alone.
"""


def label_class_groups(table):
    """The raw classes of each walk-scheme stratum, in stratum order.

    g^k lies in stratum min(k, n - k); e in 0; the reflections b... in 1; a^j
    in 1 + j for odd m, and for even m a^(m/2) in 2 and any other a^j in 2 + j.
    Every class of S_n is a stratum of its own.
    """
    kind = table.group_label[0]
    n = table.order // 2 if kind == "D" else table.order
    strata = []
    for k, label in enumerate(table.class_labels):
        power = int(label.partition("^")[2] or 0)
        if kind == "S":
            strata.append(k)
        elif label.startswith("g"):
            strata.append(min(power, n - power))
        elif label == "e":
            strata.append(0)
        elif label.startswith("b"):
            strata.append(1)
        elif n % 2:
            strata.append(1 + power)
        else:
            strata.append(2 if 2 * power == n else 2 + power)
    return tuple(tuple(c for c, s in enumerate(strata) if s == k) for k in range(max(strata) + 1))


def inverse(data, x):
    """x^-1 through ``data.mul`` alone: the last power of x before the identity."""
    power = x
    while (following := data.mul(power, x)) != data.elements[0]:
        power = following
    return power
