"""The full standard output of the ring-inspection commands, byte for byte.

Pinned for `zmod(12)` (commutative, not semiprime) and `tri(2, gf(2))`
(noncommutative, with a one-sided denominator set), so a rewrite of the
engine's set representation cannot change what these commands print.
"""

import pytest

from orespec.cli import main

GOLDEN = {
    ('ideals', 'zmod(12)'): (
        '6 two-sided ideals of zmod(12):\n'
        '  {0}\n'
        '  {0,6} semiprime\n'
        '  {0,4,8}\n'
        '  {0,3,6,9} prime completely-prime semiprime\n'
        '  {0,2,4,6,8,10} prime completely-prime semiprime\n'
        '  {0,1,2,3,4,5,6,7,8,9,10,11}\n'
    ),
    ('minprimes', 'zmod(12)'): (
        '{0,3,6,9}\n'
        '{0,2,4,6,8,10}\n'
        'prime radical: {0,6}\n'
    ),
    ('localize', 'zmod(12)', '--gens', '2'): (
        'set:           [1, 2, 4, 8]\n'
        'ass ideal:     {0,3,6,9}\n'
        'target order:  3\n'
        "min(R,S):      ['{0,3,6,9}']\n"
        "min(R,S,id):   ['{0,3,6,9}']\n"
        "localized min: ['{0~}']\n"
    ),
    ('centre', 'zmod(12)'): (
        'centre order: 12\n'
        "members:      ['0', '1', '2', '3', '4', '5', '6', '7', '8', '9', '10', '11']\n"
        'min prime:    {0,3,6,9}\n'
        'min prime:    {0,2,4,6,8,10}\n'
    ),
    ('rho', 'zmod(12)'): (
        '{0,3,6,9} -> {0,3,6,9}\n'
        '{0,2,4,6,8,10} -> {0,2,4,6,8,10}\n'
        'well-defined on minimals: True\n'
        'surjective onto minimals: True\n'
    ),
    ('ideals', 'tri(2, gf(2))'): (
        '5 two-sided ideals of tri(2, gf(2)):\n'
        '  {[0,0;.,0]}\n'
        '  {[0,0;.,0],[0,1;.,0]} semiprime\n'
        '  {[0,0;.,0],[1,0;.,0],[0,1;.,0],[1,1;.,0]} prime completely-prime semiprime\n'
        '  {[0,0;.,0],[0,1;.,0],[0,0;.,1],[0,1;.,1]} prime completely-prime semiprime\n'
        '  {[0,0;.,0],[1,0;.,0],[0,1;.,0],[1,1;.,0],[0,0;.,1],[1,0;.,1],[0,1;.,1],[1,1;.,1]}\n'
    ),
    ('minprimes', 'tri(2, gf(2))'): (
        '{[0,0;.,0],[1,0;.,0],[0,1;.,0],[1,1;.,0]}\n'
        '{[0,0;.,0],[0,1;.,0],[0,0;.,1],[0,1;.,1]}\n'
        'prime radical: {[0,0;.,0],[0,1;.,0]}\n'
    ),
    ('localize', 'tri(2, gf(2))', '--gens', '4'): (
        'set:           [4, 5]\n'
        'ass ideal:     {[0,0;.,0],[1,0;.,0],[0,1;.,0],[1,1;.,0]}\n'
        'target order:  2\n'
        "min(R,S):      ['{[0,0;.,0],[1,0;.,0],[0,1;.,0],[1,1;.,0]}']\n"
        "min(R,S,id):   ['{[0,0;.,0],[1,0;.,0],[0,1;.,0],[1,1;.,0]}']\n"
        "localized min: ['{[0,0;.,0]~}']\n"
    ),
    ('centre', 'tri(2, gf(2))'): (
        'centre order: 2\n'
        "members:      ['[0,0;.,0]', '[1,0;.,1]']\n"
        'min prime:    {[0,0;.,0]}\n'
    ),
    ('rho', 'tri(2, gf(2))'): (
        '{[0,0;.,0],[1,0;.,0],[0,1;.,0],[1,1;.,0]} -> {[0,0;.,0]}\n'
        '{[0,0;.,0],[0,1;.,0],[0,0;.,1],[0,1;.,1]} -> {[0,0;.,0]}\n'
        'well-defined on minimals: True\n'
        'surjective onto minimals: True\n'
    ),
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_cli_output_is_pinned(argv, capsys):
    assert main(list(argv)) == 0
    assert capsys.readouterr().out == "".join(GOLDEN[argv])
