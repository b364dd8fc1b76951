package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite
import repro.data.ErSynth
import repro.jobs.Jobs
import repro.perfbench.Workloads._

/** Each workload's round on a tiny domain passes its checks, and each check
  * rejects an output corrupted in the way it exists to catch.
  */
class ChecksSpec extends AnyFunSuite {

  private lazy val spark = Jobs.session()
  private val tr   = new Trace(false)
  private val seed = 3L

  private def tiny(domain: String): Inputs = inputsOf(ErSynth.generateTiny(spark, domain, seed))

  private def rejects(body: => Unit): Unit = intercept[Checks.Failed](body)

  test("supervised: the F1 recount rejects a flipped label and an out-of-range probability") {
    val in  = tiny("Cit. 2")
    val out = Supervised.run(spark, in, seed, tr).asInstanceOf[SupervisedOut]
    Supervised.check(in, out)

    val t0 = in.test.head
    rejects(Supervised.check(in.copy(test = in.test.updated(0, t0.copy(label = 1 - t0.label))), out))
    val probs = out.matcher.predict(repro.core.Vaer.toExamples(out.irs, in.test))
    rejects(Checks.matcherScore(in.test, probs.updated(0, Double.NaN), out.prf))
    rejects(Checks.matcherScore(in.test, probs.dropRight(1), out.prf))
  }

  test("active: the oracle check rejects a repeated pair, a seed, an oversized batch and a lost label") {
    val in  = tiny("Rest.")
    val out = Active.run(spark, in, seed, tr).asInstanceOf[ActiveOut]
    Active.check(in, out)

    def oracle(o: ActiveOut): Unit =
      Checks.oracleUse(o.calls, o.batches, Active.Budget, AlCfg.alSamplesPerIter,
        o.boot.pos, o.boot.neg, o.boot.unlabeled, o.al.labeledPos, o.al.labeledNeg)
    rejects(oracle(out.copy(calls = out.calls.updated(1, out.calls.head))))
    rejects(oracle(out.copy(calls = out.calls.updated(0, (out.boot.pos.head, 1)))))
    rejects(oracle(out.copy(batches = Seq(out.batches.head + out.batches(1)) ++ out.batches.drop(2))))
    val (p, l) = out.calls.head
    rejects(oracle(out.copy(calls = out.calls.updated(0, (p, 1 - l)))))
  }

  test("blocking: the neighbour check rejects a swapped neighbour; the pool check a bad seed or a repeat") {
    val in  = tiny("Cit. 2")
    val out = Blocking.run(spark, in, seed, tr).asInstanceOf[BlockingOut]
    Blocking.check(in, out)

    val (q, list) = out.ab.find(_._2.length >= 2).get
    val swapped = list.updated(0, list(1)).updated(1, list(0))
    rejects(Checks.neighbours(out.ab.updated(q, swapped), Checks.bruteNeighbours(out.reprs, "A", "B", K), "A->B"))
    rejects(Checks.topKScore(in.test, out.ab, out.ba, out.prf.copy(r = out.prf.r * 0.5)))

    val b = out.boot
    def pool(pos: Seq[(Long, Long)], neg: Seq[(Long, Long)], u: Seq[(Long, Long)]): Unit =
      Checks.pool(pos, neg, u, in.aIds, in.bIds, out.reprs, in.truth)
    rejects(pool(b.pos :+ b.neg.head, b.neg, b.unlabeled))
    rejects(pool(b.pos, b.neg, b.unlabeled :+ b.unlabeled.head))
    rejects(pool(b.pos, b.neg, b.unlabeled :+ ((in.aIds.max + 1, in.bIds.max))))
  }
}
