package repro.select

import org.scalatest.funsuite.AnyFunSuite
import repro.util.Rand

class KeySpec extends AnyFunSuite {
  test("higher score wins") {
    assert(Key.better(2L, 5, 1L, 3))
    assert(!Key.better(1L, 3, 2L, 5))
  }
  test("ties break toward smaller id") {
    assert(Key.better(1L, 3, 1L, 5))
    assert(!Key.better(1L, 5, 1L, 3))
  }
  test("strict: a key never beats itself") {
    assert(!Key.better(1L, 3, 1L, 3))
  }
  test("total: exactly one of better(a,b), better(b,a) for distinct keys") {
    val rng = new Rand.Pcg(1)
    (1 to 2000).foreach { _ =>
      val s1 = rng.nextInt(5).toLong; val s2 = rng.nextInt(5).toLong
      val i1 = rng.nextInt(100); val i2 = rng.nextInt(100)
      if ((s1, i1) != (s2, i2))
        assert(Key.better(s1, i1, s2, i2) != Key.better(s2, i2, s1, i1))
    }
  }
}
