package repro.perfbench

import repro.core.TupleRepr
import repro.er.{LabeledPair, Prf}

/** Correctness checks on the pipeline's outputs, each against a value the
  * harness computes itself from the inputs rather than through the program.
  * A failed check throws [[Checks.Failed]]; the run then reports
  * `correct: false`.
  */
object Checks {

  final class Failed(msg: String) extends Exception(msg)

  def ensure(cond: Boolean, msg: => String): Unit = if (!cond) throw new Failed(msg)

  /** Labels are about 1:3 positive, so calling every pair a match scores
    * F1 = 2·0.25 / 1.25 = 0.4; a matcher must clear this floor by a margin.
    */
  val F1Floor = 0.6

  /** P/R/F1 at threshold 0.5, counted directly from probabilities. */
  def prfOf(test: Seq[LabeledPair], probs: Array[Double]): Prf = {
    var tp = 0L; var fp = 0L; var fn = 0L
    test.indices.foreach { i =>
      val pred = probs(i) > 0.5
      if (pred && test(i).label == 1) tp += 1
      else if (pred) fp += 1
      else if (test(i).label == 1) fn += 1
    }
    val p = if (tp + fp == 0) 0.0 else tp.toDouble / (tp + fp)
    val r = if (tp + fn == 0) 0.0 else tp.toDouble / (tp + fn)
    Prf(p, r, if (p + r == 0) 0.0 else 2 * p * r / (p + r))
  }

  /** The matcher's reported P/R/F1 equals a recount from its probabilities. */
  def matcherScore(test: Seq[LabeledPair], probs: Array[Double], reported: Prf): Unit = {
    ensure(probs.length == test.length, s"${probs.length} probabilities for ${test.length} test pairs")
    ensure(probs.forall(p => p >= 0.0 && p <= 1.0), "a probability is not a finite number in [0, 1]")
    val mine = prfOf(test, probs)
    ensure(mine == reported, s"reported $reported, recounted $mine")
    ensure(mine.f1 >= F1Floor, f"F1 ${mine.f1}%.3f is below the floor $F1Floor")
  }

  // ---------------------------------------------------------- blocking

  private def sqEuclid(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0; var i = 0
    while (i < a.length) { val d = a(i) - b(i); s += d * d; i += 1 }
    s
  }

  /** Eq. 3 summed over attributes: Σ (μ − μ')² + (σ − σ')². */
  def w2sq(s: TupleRepr, t: TupleRepr): Double = {
    var sum = 0.0
    var a = 0
    while (a < s.mu.length) {
      var part = 0.0
      var i = 0
      while (i < s.mu(a).length) {
        val dm = s.mu(a)(i) - t.mu(a)(i); val ds = s.sigma(a)(i) - t.sigma(a)(i)
        part += dm * dm + ds * ds
        i += 1
      }
      sum += part
      a += 1
    }
    sum
  }

  /** Ids of the `n` nearest `to` tuples of every `from` tuple by Euclidean
    * distance over concatenated μ, ties by id.
    */
  def euclidNearest(reprs: Map[(String, Long), TupleRepr], from: String, to: String,
                    n: Int): Map[Long, Seq[Long]] = {
    def side(s: String) = reprs.toSeq.collect { case ((`s`, id), r) => (id, r.mu.flatten) }
    val targets = side(to)
    side(from).map { case (qid, qv) =>
      qid -> targets.map { case (tid, tv) => (tid, sqEuclid(qv, tv)) }.sortBy(t => (t._2, t._1)).take(n).map(_._1)
    }.toMap
  }

  /** Brute-force top-k of every `from` tuple among all `to` tuples: the
    * Euclidean top-2k re-ranked by W₂², ties by id.
    */
  def bruteNeighbours(reprs: Map[(String, Long), TupleRepr], from: String, to: String,
                      k: Int): Map[Long, Seq[Long]] =
    euclidNearest(reprs, from, to, 2 * k).map { case (qid, near) =>
      val q = reprs((from, qid))
      qid -> near.map(t => (t, w2sq(q, reprs((to, t))))).sortBy(t => (t._2, t._1)).take(k).map(_._1)
    }

  /** Every neighbour list equals the brute-force one, in order. */
  def neighbours(got: Map[Long, Seq[Long]], expected: Map[Long, Seq[Long]], dir: String): Unit = {
    ensure(got.keySet == expected.keySet, s"$dir: lists for ${got.size} queries, expected ${expected.size}")
    expected.foreach { case (q, want) =>
      ensure(got(q) == want, s"$dir: query $q has ${got(q).mkString(",")}, brute force ${want.mkString(",")}")
    }
  }

  /** Table IV P/R/F1 recounted from both-direction neighbour lists. */
  def topKScore(test: Seq[LabeledPair], ab: Map[Long, Seq[Long]], ba: Map[Long, Seq[Long]],
                reported: Prf): Unit = {
    val probs = test.map { p =>
      val hit = ab.getOrElse(p.idA, Nil).contains(p.idB) || ba.getOrElse(p.idB, Nil).contains(p.idA)
      if (hit) 1.0 else 0.0
    }.toArray
    val mine = prfOf(test, probs)
    ensure(mine == reported, s"reported top-k score $reported, recounted $mine")
  }

  /** Alg. 1 output: every pair names existing ids and appears once; seed
    * positives are true matches, none farther in W₂² than a seed negative.
    */
  def pool(pos: Seq[(Long, Long)], neg: Seq[(Long, Long)], unlabeled: Seq[(Long, Long)],
           aIds: Set[Long], bIds: Set[Long],
           reprs: Map[(String, Long), TupleRepr], truth: Set[(Long, Long)]): Unit = {
    val all = pos ++ neg ++ unlabeled
    ensure(pos.nonEmpty && neg.nonEmpty, "no seed positives or no seed negatives")
    all.foreach { case (a, b) =>
      ensure(aIds.contains(a) && bIds.contains(b), s"pool pair ($a, $b) names a missing tuple")
    }
    ensure(all.distinct.length == all.length, s"${all.length - all.distinct.length} pool pairs appear twice")
    pos.foreach(p => ensure(truth.contains(p), s"seed positive $p is not a true match"))
    val d = (p: (Long, Long)) => w2sq(reprs(("A", p._1)), reprs(("B", p._2)))
    val farPos  = pos.map(d).max
    val nearNeg = neg.map(d).min
    ensure(farPos <= nearNeg, s"a seed positive (W2² $farPos) is farther than a seed negative ($nearNeg)")
  }

  // ------------------------------------------------------------- active

  /** Alg. 2's use of the oracle: exactly `budget` calls on distinct pairs of
    * the unlabelled pool, none a seed, in batches of at most `perBatch`, and
    * the returned labelled pools are the seeds plus the oracle's answers.
    */
  def oracleUse(calls: Seq[((Long, Long), Int)], batches: Seq[Int], budget: Int, perBatch: Int,
                pos: Seq[(Long, Long)], neg: Seq[(Long, Long)], unlabeled: Seq[(Long, Long)],
                labeledPos: Seq[(Long, Long)], labeledNeg: Seq[(Long, Long)]): Unit = {
    val pairs = calls.map(_._1)
    ensure(pairs.length == budget, s"oracle called ${pairs.length} times, budget $budget")
    ensure(pairs.distinct.length == pairs.length, "the oracle was asked about a pair twice")
    val seeds = (pos ++ neg).toSet
    val pool  = unlabeled.toSet
    pairs.foreach { p =>
      ensure(!seeds.contains(p), s"the oracle was asked about seed $p")
      ensure(pool.contains(p), s"the oracle was asked about $p, which is not in the unlabelled pool")
    }
    ensure(batches.sum == pairs.length && batches.forall(b => b > 0 && b <= perBatch),
      s"batch sizes ${batches.mkString(",")} exceed $perBatch or do not add up to ${pairs.length}")
    ensure(labeledPos == pos ++ calls.collect { case (p, 1) => p },
      "labelled positives are not the seed positives plus the oracle's positives")
    ensure(labeledNeg == neg ++ calls.collect { case (p, 0) => p },
      "labelled negatives are not the seed negatives plus the oracle's negatives")
  }
}
