package repro.select

import org.scalacheck.{Gen, Prop}
import org.scalacheck.Prop.propBoolean
import org.scalatest.funsuite.AnyFunSuite
import repro.TestGens

class IdHeapSpec extends AnyFunSuite {

  /** Reference order: best-first (score desc, id asc). */
  private def refSort(ids: Seq[Int], key: Array[Long]): Seq[Int] =
    ids.sortWith((a, b) => Key.better(key(a), a, key(b), b))

  /** Keys from a few distinct values, so that most compare on the id. */
  private def tiedKeys(n: Int): Gen[Array[Long]] =
    Gen.listOfN(n, Gen.choose(0L, 3L)).map(_.toArray)

  test("the build pops every id in Key.better order") {
    val prop = Prop.forAllNoShrink(Gen.choose(0, 200).flatMap(tiedKeys)) { key =>
      val heap = new IdHeap(key)
      val drained = Seq.fill(key.length)(heap.pop())
      (drained == refSort(key.indices, key)) :| s"keys ${key.mkString(",")}: popped ${drained.mkString(",")}"
    }
    TestGens.check(prop, 200)
  }

  test("any interleaving of push and pop with tied keys pops in Key.better order") {
    // Each step pops (false) or pushes back (true) one popped id under a
    // fresh key, as the lazy greedies re-key a vertex while it is out.
    val cases = for {
      n <- Gen.choose(1, 80)
      key <- tiedKeys(n)
      steps <- Gen.listOf(Gen.zip(Gen.oneOf(false, true), Gen.choose(0L, 3L), Gen.choose(0, 1000)))
    } yield (key, steps)
    val prop = Prop.forAllNoShrink(cases) { case (key, steps) =>
      val heap = new IdHeap(key)
      val live = scala.collection.mutable.Set.from(key.indices)
      val out = scala.collection.mutable.ArrayBuffer.empty[Int]
      steps.forall { case (push, newKey, pick) =>
        if (push && out.nonEmpty) {
          val v = out.remove(pick % out.size)
          key(v) = newKey
          heap.push(v)
          live += v
          heap.size == live.size
        } else if (live.nonEmpty) {
          val expect = refSort(live.toSeq, key).head
          val got = heap.pop()
          live -= got
          out += got
          got == expect
        } else heap.size == 0
      } :| s"keys ${key.mkString(",")} steps ${steps.mkString(",")}"
    }
    TestGens.check(prop, 300)
  }

  test("top and pop of an empty heap are rejected") {
    val heap = new IdHeap(Array(5L))
    assert(heap.pop() == 0 && heap.size == 0)
    intercept[IllegalArgumentException](heap.top)
    intercept[IllegalArgumentException](heap.pop())
  }
}
