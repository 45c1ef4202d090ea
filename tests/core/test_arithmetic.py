"""Unit tests for the symbolic arithmetic used in array sizes."""

import pytest

from repro.core.arithmetic import (
    ArithmeticError_,
    Cst,
    FloorDiv,
    Var,
    arith_max,
    arith_min,
    exact_div,
    modulo,
    to_c,
)


class TestConstants:
    def test_constant_equality_with_int(self):
        assert Cst(4) == 4
        assert Cst(4) == Cst(4)
        assert Cst(4) != Cst(5)

    def test_addition_of_constants_folds(self):
        assert Cst(2) + Cst(3) == 6 - 1

    def test_subtraction_and_negation(self):
        assert Cst(5) - 3 == Cst(2)
        assert -Cst(3) == Cst(-3)

    def test_multiplication_by_zero(self):
        assert Cst(0) * Var("n") == Cst(0)

    def test_multiplication_by_one_is_identity(self):
        n = Var("n")
        assert Cst(1) * n == n


class TestVariables:
    def test_variable_plus_zero_is_variable(self):
        n = Var("n")
        assert n + 0 == n

    def test_like_terms_collect(self):
        n = Var("n")
        assert n + n == 2 * n
        assert 3 * n - n == 2 * n

    def test_terms_cancel_to_zero(self):
        n = Var("n")
        assert n - n == Cst(0)

    def test_sum_is_commutative(self):
        n, m = Var("n"), Var("m")
        assert n + m == m + n

    def test_product_is_commutative(self):
        n, m = Var("n"), Var("m")
        assert n * m == m * n

    def test_distribution_over_sum(self):
        n = Var("n")
        assert 2 * (n + 1) == 2 * n + 2

    def test_free_variables(self):
        n, m = Var("n"), Var("m")
        assert (n * m + 3).free_variables() == {"n", "m"}


class TestSubstitutionAndEvaluation:
    def test_substitute_to_constant(self):
        n = Var("n")
        assert (n + 2).substitute({"n": 5}) == Cst(7)

    def test_evaluate_with_environment(self):
        n, m = Var("n"), Var("m")
        assert (n * m + 1).evaluate({"n": 3, "m": 4}) == 13

    def test_evaluate_unbound_raises(self):
        with pytest.raises(ArithmeticError_):
            Var("n").evaluate({})

    def test_substitute_expression(self):
        n, m = Var("n"), Var("m")
        assert (n + 1).substitute({"n": m * 2}) == 2 * m + 1


class TestDivision:
    def test_exact_constant_division(self):
        assert exact_div(Cst(12), Cst(3)) == Cst(4)

    def test_division_by_one(self):
        n = Var("n")
        assert exact_div(n, Cst(1)) == n

    def test_division_of_product_cancels_factor(self):
        n, m = Var("n"), Var("m")
        assert exact_div(n * m, m) == n

    def test_division_distributes_over_sum(self):
        n = Var("n")
        assert exact_div(2 * n + 4, Cst(2)) == n + 2

    def test_inexact_division_raises_without_floor(self):
        with pytest.raises(ArithmeticError_):
            exact_div(Var("n"), Cst(2))

    def test_inexact_division_builds_floordiv_node(self):
        result = exact_div(Var("n"), Cst(2), allow_floor=True)
        assert isinstance(result, FloorDiv)
        assert result.substitute({"n": 9}) == Cst(4)

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            exact_div(Var("n"), Cst(0))

    def test_slide_window_count_formula(self):
        # (n - size + step) / step with size=3, step=1 must simplify to n - 2.
        n = Var("n")
        assert exact_div(n - 3 + 1, Cst(1), allow_floor=True) == n - 2


class TestModuloAndMax:
    def test_constant_modulo(self):
        assert modulo(Cst(7), Cst(3)) == Cst(1)

    def test_modulo_by_one_is_zero(self):
        assert modulo(Var("n"), Cst(1)) == Cst(0)

    def test_modulo_self_is_zero(self):
        n = Var("n")
        assert modulo(n, n) == Cst(0)

    def test_max_of_constants(self):
        assert arith_max(3, 7) == Cst(7)

    def test_max_of_equal_expressions(self):
        n = Var("n")
        assert arith_max(n, n) == n


class TestMinMaxAndC:
    def test_min_and_max_resolve_what_non_negative_variables_prove(self):
        i = Var("i")
        assert arith_max(i, 0) == i
        assert arith_min(i - 1, i) == i - 1
        clamped = arith_min(arith_max(i - 1, 0), 9)
        assert to_c(clamped) == "min(max(i - 1, 0), 9)"
        assert clamped.substitute({"i": 20}) == 9 and clamped.substitute({"i": 0}) == 0

    def test_sums_print_positive_terms_first_and_the_constant_last(self):
        assert to_c(3 - 2 * Var("i")) == "3 - i * 2"
        assert to_c(Var("i") * 64 + Var("j") - 1) == "i * 64 + j - 1"

    def test_a_possibly_negative_operand_prints_a_floored_modulo(self):
        i = Var("i")
        assert to_c(modulo(i, Cst(4))) == "(i % 4)"
        assert to_c(modulo(i - 3, Cst(4))) == "(((i - 3) % 4 + 4) % 4)"
        assert to_c(exact_div(i + 1, Cst(4), allow_floor=True)) == "((i + 1) / 4)"
        with pytest.raises(ArithmeticError_):  # C's / truncates
            to_c(exact_div(i - 1, Cst(4), allow_floor=True))


class TestHashingAndRepr:
    def test_equal_expressions_hash_equal(self):
        n = Var("n")
        assert hash(n + 1) == hash(1 + n)

    def test_repr_is_readable(self):
        n = Var("n")
        assert "n" in repr(n + 2)
