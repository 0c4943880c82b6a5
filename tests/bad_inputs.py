"""The CLI's bad-input tables, by test id.

``tests/test_cli.py`` parametrizes its bad-input tests over them, and
``scripts/cli_matrix.py`` runs them as part of its fixed invocation set.
Standard library only, so that script can import this module.
"""

# space or family file contents -> `qml check` exits 2 with one short line
BAD_SPACES = {
    "1/0": {"points": ["a", "b"], "matrix": [["0", "1/0"], ["1", "0"]]},
    "0/0": {"points": ["a", "b"], "matrix": [["0", "0/0"], ["1", "0"]]},
    "abc": {"points": ["a", "b"], "matrix": [["0", "abc"], ["1", "0"]]},
    "0.5": {"points": ["a", "b"], "matrix": [["0", "0.5"], ["1", "0"]]},
    "-1": {"points": ["a", "b"], "matrix": [["0", "-1"], ["1", "0"]]},
    "true": {"points": ["a", "b"], "matrix": [["0", True], ["1", "0"]]},
    "underscore": {"points": ["a", "b"], "matrix": [["0", "1_0"], ["1", "0"]]},
    "arabic-indic-digit": {"points": ["a", "b"], "matrix": [["0", "\u0663"], ["1", "0"]]},
    "arabic-indic-denominator": {"points": ["a", "b"],
                                 "matrix": [["0", "1/\u0663"], ["1", "0"]]},
    "signed-fraction": {"points": ["a", "b"], "matrix": [["0", "-1/-2"], ["1", "0"]]},
    "plus-sign": {"points": ["a", "b"], "matrix": [["0", "1"], ["+1", "0"]]},
    "cutoff-x": {"rule": "sup-truncated-difference", "cutoff": "x"},
    "cutoff-float": {"rule": "sup-truncated-difference", "cutoff": 8.5},
    "cutoff-text": {"rule": "sup-truncated-difference", "cutoff": "8"},
    "not-an-object": 5,
    "matrix-not-a-list": {"points": ["a"], "matrix": 5},
    "label-not-a-string": {"points": [["a"]], "matrix": [["0"]]},
    "params-not-an-object": {"rule": "order-characteristic", "cutoff": 8, "params": 5},
    "params-a-list": {"rule": "order-characteristic", "cutoff": 8,
                      "params": [["values", "natural"]]},
    "extras-not-an-object": {"rule": "order-characteristic", "cutoff": 8,
                             "params": {"extras": 5}},
    "extra-not-rational": {"rule": "order-characteristic", "cutoff": 8,
                           "params": {"extras": {"zz": "abc"}}},
    "extra-not-text": {"rule": "order-characteristic", "cutoff": 8,
                       "params": {"extras": {"zz": 2}}},
    "extra-zero-denominator": {"rule": "order-characteristic", "cutoff": 8,
                               "params": {"extras": {"zz": "1/0"}}},
    "extra-underscore": {"rule": "order-characteristic", "cutoff": 8,
                         "params": {"extras": {"h": "1_0"}}},
    "extra-arabic-indic-digit": {"rule": "order-characteristic", "cutoff": 8,
                                 "params": {"extras": {"h": "\u0663"}}},
    "extra-exponent": {"rule": "order-characteristic", "cutoff": 8,
                       "params": {"extras": {"h": "1e3"}}},
    "extra-decimal-point": {"rule": "order-characteristic", "cutoff": 8,
                            "params": {"extras": {"h": "0.5"}}},
    "extra-negative": {"rule": "order-characteristic", "cutoff": 8,
                       "params": {"extras": {"h": "-1/2"}}},
    "extra-infinite": {"rule": "order-characteristic", "cutoff": 8,
                       "params": {"extras": {"h": "inf"}}},
    "unknown-value-form": {"rule": "order-characteristic", "cutoff": 8,
                           "params": {"values": "odd"}},
    "unknown-param": {"rule": "order-characteristic", "cutoff": 8,
                      "params": {"colour": "red"}},
    "param-of-another-rule": {"rule": "order-characteristic", "cutoff": 8,
                              "params": {"prefix": "f"}},
    "prefix-not-a-string": {"rule": "sup-truncated-difference", "cutoff": 8,
                            "params": {"prefix": 3}},
    "window-text": {"rule": "sup-truncated-difference", "cutoff": 8,
                    "params": {"coordinate_cutoff": "x"}},
    "window-float": {"rule": "sup-truncated-difference", "cutoff": 8,
                     "params": {"coordinate_cutoff": 9.0}},
    "window-bool": {"rule": "sup-truncated-difference", "cutoff": 8,
                    "params": {"coordinate_cutoff": True}},
    "extras-on-vector-rule": {"rule": "sup-truncated-difference", "cutoff": 8,
                              "params": {"extras": {"zz": "1"}}},
    "window-integer": {"rule": "sup-truncated-difference", "cutoff": 8,
                       "params": {"coordinate_cutoff": 64}},
    "extra-takes-a-label": {"rule": "truncated-difference", "cutoff": 6,
                            "params": {"extras": {"1/2": "2"}}},
    "extra-takes-the-label-past-the-window": {"rule": "truncated-difference", "cutoff": 6,
                                              "params": {"extras": {"7/8": "0"}}},
    "extra-takes-a-label-far-past-the-window": {"rule": "truncated-difference", "cutoff": 4,
                                                "params": {"extras": {"9/10": "0"}}},
    "extra-takes-a-natural-label": {"rule": "order-characteristic", "cutoff": 8,
                                    "params": {"values": "natural", "extras": {"3": "1/2"}}},
    "extras-of-3000-digits": {"rule": "truncated-difference", "cutoff": 4,
                              "params": {"extras": {"u": f"{10**2999 + 1}/{10**2999}",
                                                    "v": f"1/{3 * 10**2999 + 1}"}}},
    "entry-of-3000-digits": {"points": ["a", "b"],
                             "matrix": [["0", "1/" + "7" * 3000], ["1", "0"]]},
    "entry-of-3000-letters": {"points": ["a", "b"], "matrix": [["0", "x" * 3000], ["1", "0"]]},
    "true-after-an-equal-int": {"points": ["a", "b"], "matrix": [[0, 1], [True, 0]]},
    "float-after-an-equal-int": {"points": ["a", "b"], "matrix": [[0, 1], [1.0, 0]]},
    # a top-level key the file's format does not read is refused, not ignored
    "family-with-a-matrix": {"rule": "truncated-difference", "cutoff": 4,
                             "points": ["a", "b"], "matrix": [["0", "1"], ["1", "0"]]},
    "space-with-an-extra-key": {"points": ["a", "b"], "matrix": [["0", "1"], ["1", "0"]],
                                "extra": 1},
}

# file bytes that are not a JSON object -> exit 2 naming the file, in any role
BAD_FILES = {"not-utf8": b"\xff\xfe{}", "invalid-json": b"{not json",
             "not-an-object": b"[1, 2]"}

# argv naming files as ``data/<name>`` (``tests/data``, from its parent
# directory) that ``main`` refuses with exit 2 and one stderr line
BAD_ARGUMENTS = {
    # an empty path is a file that cannot be read or written, not an absent option
    "second-distance-empty": ["audit", "data/pair_n8_d.json", "--second-distance", ""],
    "check-out-empty": ["check", "data/chain_n12.json", "--out", ""],
    "audit-out-empty": ["audit", "data/chain_n12.json", "--out", ""],
    "gallery-out-empty": ["gallery", "halfopen", "--cutoff", "4", "--out", ""],
    "random-out-empty": ["random", "--n", "3", "--count", "2", "--out", ""],
    "report-out-empty": ["report", "data/chain_n12.json", "--out", ""],
}

# `qml report` inputs its renderers cannot read -> exit 2 with one line
BAD_REPORTS = {
    "list": [1, 2],
    "string": "random",
    "gallery-no-report": {"command": "gallery"},
    "gallery-fact-not-an-object": {"command": "gallery",
                                   "report": {"fixture": "halfopen", "cutoff": 4,
                                              "facts": [5]}},
    "random-empty-config": {"command": "random", "config": {}},
    "random-summary-a-list": {"command": "random",
                              "config": {"n": 4, "count": 1, "seed": 0}, "summary": [],
                              "searches": {}, "content_hash": "0"},
    "audit-empty-entry": {"command": "audit", "input": "x.json",
                          "report": {"entries": [{}]}},
    "check-no-validation": {"command": "check", "input": "x.json", "kind": "finite"},
}

# integer options are ASCII digits only: no sign, "_", p/q or non-ASCII
# digit -> usage error, exit 2
BAD_SIZES = {
    "n-0": ["random", "--n", "0"],
    "n-negative": ["random", "--n", "-1"],
    "count-negative": ["random", "--count", "-3"],
    "n-not-an-int": ["random", "--n", "x"],
    "n-arabic-indic": ["random", "--n", "\u0663"],
    "count-underscore": ["random", "--count", "1_0"],
    "count-plus": ["random", "--count", "+1"],
    "n-fraction": ["random", "--n", "4/2"],
    "seed-negative": ["random", "--seed", "-5"],
    "seed-plus": ["random", "--seed", "+5"],
    "cutoff-underscore": ["gallery", "halfopen", "--cutoff", "1_6"],
    "cutoff-negative": ["gallery", "halfopen", "--cutoff", "-8"],
    "cutoff-fraction": ["gallery", "halfopen", "--cutoff", "16/2"],
    "n-5000-digits": ["random", "--n", "9" * 5000],
}

# QML_WORKERS values other than an integer from 1 to MAX_WORKERS -> exit 2
BAD_WORKERS = {**{v: v for v in ("two", "0", "-3", "1.5", "", "+1", "1_0", "2/1", "\u0661")},
               "5000-digits": "9" * 5000}
